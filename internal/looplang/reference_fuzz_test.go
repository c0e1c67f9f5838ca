package looplang_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"modsched/internal/experiments"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

// diffMachines is what the differential fuzz parses against: no machine
// (syntax only), the built-in Cydra 5, and every machine of the zoo.
func diffMachines(tb testing.TB) ([]*machine.Machine, []string) {
	tb.Helper()
	ms := []*machine.Machine{nil, machine.Cydra5()}
	paths, err := filepath.Glob("../../testdata/machines/*.mach")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("zoo machines: %v (%d files)", err, len(paths))
	}
	var texts []string
	for _, path := range paths {
		m, err := machine.LoadMachineFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		ms = append(ms, m)
		texts = append(texts, string(src))
	}
	return ms, texts
}

// FuzzParseMatchesReference: Parse must agree with the reference parser
// on every input, on every machine. Either both accept and build the same
// loop (ops, edges, registers, comments, profile), or both reject with
// the same message, line and column.
func FuzzParseMatchesReference(f *testing.F) {
	ms, machTexts := diffMachines(f)
	corpus, err := experiments.Corpus(machine.Cydra5())
	if err != nil {
		f.Fatal(err)
	}
	for i, l := range corpus {
		f.Add(looplang.Print(l), uint8(i))
	}
	for i, src := range machTexts {
		f.Add(src, uint8(i))
	}
	hand := []string{
		"loop daxpy\nprofile 5 10000\n\nxi = aadd xi@1, #8        ; xi@1 is xi's value one iteration back\nx  = load xi\nyi = aadd yi@1, #8\ny  = load yi\nt1 = fmul a, x            ; 'a' is never defined\nt2 = fadd y, t1\nsi = aadd si@1, #8\nst: store si, t2\nbrtop\n\n!mem st -> x dist 1       ; explicit memory dependence\n",
		"loop guarded\np = cmp x, limit\n(p) s = fadd s@1, x\n(p@1) t = fadd s, x\nbrtop\n",
		"loop deps\na: x = load p\nb: store q, x\nbrtop\n!mem b -> a dist 1 delay 2\n!anti a -> b dist 0\n!output a -> a dist 1\n!flow b -> a dist 2 delay -1\n",
		"loop fwd\ny = fadd x@1, c\nx = load y\nbrtop\n",
		"loop same\nx: x = load p\ny: store q, x\nbrtop\n!mem x -> y dist 1\n",
		"loop tabs\n\tx\t=\tload\tp\t;\tcomment\t\n\tbrtop\n",
		"loop crlf\r\nprofile 2 20\r\nx = load p\r\nst: store q, x ; c\r\nbrtop\r\n!mem st -> x dist 1\r\n",
		"loop\u00a0nbsp\u2003\nx\u3000=\u0085load p,\u00a0q\u3000; c\u2028\n\u00a0brtop\u0085\n!mem\u00a0x -> x\u2009dist 1\n",
		"loop u\ny = aadd y@1, #8\nbrtop\n",
		"loop neg\nx = aadd y, #-7\nz = aadd x, #+3\nbrtop\n",
		"loop dup\nx = aadd y, #1, #2\nbrtop\n",
		"loop dupbad\nx = aadd y, #1, #zz\nbrtop\n",
		"loop big\nx = aadd y, #9223372036854775808\nbrtop\n",
		"loop bad\nx = \nbrtop\n",
		"!mem a -> b dist 1\n",
		"loop l\nx = op y@2, #-7\n",
		"; comment only\n",
		"loop l\n() x = y\n",
		"loop l\n(p q) x = load y\nbrtop\n",
		"loop l\n(p x = load y\nbrtop\n",
		"loop l\nprofile 1\nbrtop\n",
		"loop l\nprofile +1 -2\nbrtop\n",
		"loop l\nloop m\nbrtop\n",
		"loop l\nx = load p\nx = load q\nbrtop\n",
		"loop l\na: x = load p\na: y = load q\nbrtop\n",
		"loop l\nx = load q@-1\ny = load undef@2\nbrtop\n",
		"loop l\nx = load p\nbrtop\n!mem x -> x dist 1 delay 2 junk\n",
		"loop l\nx = load p\nbrtop\n!mem x -> x dist 1 delay\n",
		"loop l\nx = load p\nbrtop\n!ctrl x -> x dist 1\n",
		"loop l\nx = load p\nbrtop\n!mem nosuch -> x dist +1\n",
		"loop l\n:x = load p\na,b: store x\nbrtop\n",
		"loop l\nx@1 = load p\nbrtop\n",
		"loop l\nx = START\nbrtop\n",
		"loop l\nx = load x\nbrtop\n",
		"loop \xff\nx = load \xe2\x80\nbrtop\xc2\n",
		"loop l",
		"",
	}
	for i, src := range hand {
		for mi := range ms {
			f.Add(src, uint8(i+mi))
		}
	}
	f.Fuzz(func(t *testing.T, src string, mi uint8) {
		m := ms[int(mi)%len(ms)]
		got, gerr := looplang.Parse(src, m)
		want, werr := referenceParse(src, m)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Parse error %v, reference error %v\ninput: %q", gerr, werr, src)
		}
		if werr != nil {
			var gp, wp *looplang.ParseError
			if !errors.As(gerr, &gp) || !errors.As(werr, &wp) {
				t.Fatalf("not a *ParseError: %T / %T", gerr, werr)
			}
			if gerr.Error() != werr.Error() || gp.Line != wp.Line || gp.Col != wp.Col {
				t.Fatalf("Parse error %q at %d:%d, reference %q at %d:%d\ninput: %q",
					gerr, gp.Line, gp.Col, werr, wp.Line, wp.Col, src)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse and reference built different loops\ninput: %q\nParse:\n%v\nreference:\n%v", src, got, want)
		}
	})
}
