// Package looplang parses and prints the textual loop format used by the
// command-line tools. The format describes one innermost loop body in
// dynamic single assignment form:
//
//	loop daxpy
//	profile 5 10000
//
//	xi = aadd xi@1, #8        ; xi@1 is xi's value one iteration back
//	x  = load xi
//	yi = aadd yi@1, #8
//	y  = load yi
//	t1 = fmul a, x            ; 'a' is never defined: loop invariant
//	t2 = fadd y, t1
//	si = aadd si@1, #8
//	st: store si, t2
//	brtop
//
//	!mem st -> x dist 1       ; explicit memory dependence
//
// Rules: `name@k` reads the value name held k iterations ago; a name that
// is read at distance 0 before (or without) a definition is a loop
// invariant; `(p) dest = op ...` predicates an operation on p; `label:`
// prefixes give operations names for explicit `!kind from -> to dist n
// [delay d]` dependence lines (kind one of mem, anti, output, flow).
// Comments run from ';' to end of line ('#' introduces immediates).
package looplang

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"modsched/internal/ir"
	"modsched/internal/machine"
)

// Parse parses the textual format into a Loop valid on machine m. Every
// error it returns is (or wraps) a *ParseError carrying the 1-based line
// (and, where known, column) of the offending token.
//
// Lines are cut out of src by offset and tokens are sub-strings of it, so
// scanning copies no text, and one name table with dense ids resolves
// registers and labels. Assembling the loop then walks the scanned
// operations, splitting each one's operands into fields once.
func Parse(src string, m *machine.Machine) (*ir.Loop, error) {
	p := newParser(src, m)
	if err := p.scan(); err != nil {
		return nil, err
	}
	return p.build()
}

// pos locates a source line: its 1-based number and the offset of its
// first byte, from which an error recovers the line to give a column.
type pos struct{ line, at int }

type rawOp struct {
	pos
	pred    string // predicate reference (may carry @k)
	opcode  string
	args    string // the operands, split into fields by build
	dest    bool   // whether the op defines a register
	comment string
}

type rawDep struct {
	pos
	kind     ir.DepKind
	from, to string
	dist     int
	delay    int
	hasDelay bool
}

// nameEnt is one entry of the name table. Registers and labels are
// separate namespaces that share the table: one name may be both.
type nameEnt struct {
	def   int32 // index of the op defining the register, or -1
	label int32 // index of the op carrying the label, or -1
}

type parser struct {
	m            *machine.Machine
	src          string
	name         string
	entry, loops int64
	haveFrq      bool
	ops          []rawOp
	deps         []rawDep
	ids          map[string]int32 // name -> index into names
	names        []nameEnt
	futures      []ir.Value // by op index: the future of the register it defines
}

// newParser presizes the tables for a loop of src's line count, each
// line an op naming a register and a label. The estimate is capped so
// that a source of blank lines reserves nothing; past it they grow.
func newParser(src string, m *machine.Machine) *parser {
	lines := min(strings.Count(src, "\n")+1, 256)
	return &parser{
		m:     m,
		src:   src,
		ops:   make([]rawOp, 0, lines),
		ids:   make(map[string]int32, 2*lines),
		names: make([]nameEnt, 0, 2*lines),
	}
}

func (p *parser) scan() error {
	src := p.src
	for at, n := 0, 1; ; n++ {
		end := len(src)
		if i := strings.IndexByte(src[at:], '\n'); i >= 0 {
			end = at + i
		}
		if err := p.scanLine(pos{n, at}, src[at:end]); err != nil {
			return err
		}
		if end == len(src) {
			break
		}
		at = end + 1
	}
	if p.name == "" {
		return &ParseError{Msg: "missing 'loop NAME' header"}
	}
	if len(p.ops) == 0 {
		return &ParseError{Msg: fmt.Sprintf("loop %s has no operations", p.name)}
	}
	return nil
}

func (p *parser) scanLine(at pos, line string) error {
	comment := ""
	if i := strings.IndexByte(line, ';'); i >= 0 {
		comment = strings.TrimSpace(line[i+1:])
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}
	if head, _ := nextField(line, 0, false); head != "loop" && head != "profile" && head[0] != '!' {
		return p.scanOp(at, line, comment)
	}
	var f [9]string // a directive has at most 8 fields; a 9th is reported
	n := 0
	for i := 0; ; n++ {
		tok, next := nextField(line, i, false)
		if tok == "" {
			break
		}
		if n < len(f) {
			f[n] = tok
		}
		i = next
	}
	return p.directive(at, f[:min(n, len(f))], n)
}

// directive handles a 'loop', 'profile' or '!kind' line whose first
// fields are f, out of n.
func (p *parser) directive(at pos, f []string, n int) error {
	switch f[0] {
	case "loop":
		if n != 2 {
			return p.errf(at.line, "usage: loop NAME")
		}
		if p.name != "" {
			return p.errTok(at, f[0], "duplicate 'loop' header (already named %q)", p.name)
		}
		p.name = f[1]
	case "profile":
		if n != 3 {
			return p.errf(at.line, "usage: profile ENTRYFREQ LOOPFREQ")
		}
		e, err1 := strconv.ParseInt(f[1], 10, 64)
		l, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return p.errf(at.line, "profile wants two integers")
		}
		p.entry, p.loops, p.haveFrq = e, l, true
	case "!mem", "!anti", "!output", "!flow":
		dep, err := p.parseDep(at, f, n)
		if err != nil {
			return err
		}
		p.deps = append(p.deps, dep)
	default:
		return p.errTok(at, f[0], "unknown dependence kind %q (want !mem, !anti, !output, or !flow)", f[0])
	}
	return nil
}

// parseDep parses `!kind FROM -> TO dist N [delay D]` from its first
// fields f, out of n.
func (p *parser) parseDep(at pos, f []string, n int) (rawDep, error) {
	if n < 6 || f[2] != "->" || f[4] != "dist" {
		return rawDep{}, p.errf(at.line, "usage: %s FROM -> TO dist N [delay D]", f[0])
	}
	dist, err := strconv.Atoi(f[5])
	if err != nil || dist < 0 {
		return rawDep{}, p.errTok(at, f[5], "bad distance %q", f[5])
	}
	d := rawDep{pos: at, kind: ir.Flow, from: f[1], to: f[3], dist: dist}
	switch f[0] {
	case "!mem":
		d.kind = ir.Mem
	case "!anti":
		d.kind = ir.Anti
	case "!output":
		d.kind = ir.Output
	}
	switch {
	case n == 6:
		// no delay clause
	case f[6] == "delay" && n == 7:
		return rawDep{}, p.errTok(at, f[6], "'delay' wants a value: %s FROM -> TO dist N delay D", f[0])
	case f[6] == "delay" && n == 8:
		v, err := strconv.Atoi(f[7])
		if err != nil {
			return rawDep{}, p.errTok(at, f[7], "bad delay %q", f[7])
		}
		d.delay, d.hasDelay = v, true
	case f[6] == "delay":
		return rawDep{}, p.errTok(at, f[8], "unexpected %q after delay value", f[8])
	default:
		return rawDep{}, p.errTok(at, f[6], "unexpected %q after dependence (want nothing or 'delay D')", f[6])
	}
	return d, nil
}

// scanOp parses `[(pred)] [label:] [dest =] opcode operands...` and enters
// its register and label in the name table.
func (p *parser) scanOp(at pos, line, comment string) error {
	op := rawOp{pos: at, comment: comment}
	rest := line
	// optional predicate "(p)"
	if strings.HasPrefix(rest, "(") {
		end := strings.IndexByte(rest, ')')
		if end < 0 {
			return p.errf(at.line, "unterminated predicate")
		}
		op.pred = strings.TrimSpace(rest[1:end])
		if op.pred == "" {
			return p.errf(at.line, "empty predicate '()'")
		}
		rest = strings.TrimSpace(rest[end+1:])
	}
	// optional label "name:"
	label := ""
	if i := strings.IndexByte(rest, ':'); i >= 0 && !strings.Contains(rest[:i], " ") && !strings.Contains(rest[:i], "=") {
		label = strings.TrimSpace(rest[:i])
		rest = strings.TrimSpace(rest[i+1:])
	}
	// optional "dest ="
	dest := ""
	if i := strings.IndexByte(rest, '='); i >= 0 {
		dest = strings.TrimSpace(rest[:i])
		if strings.ContainsAny(dest, " \t,@#") || dest == "" {
			return p.errTok(at, dest, "bad destination %q", dest)
		}
		rest = strings.TrimSpace(rest[i+1:])
	}
	var next int
	op.opcode, next = nextField(rest, 0, true)
	if op.opcode == "" {
		return p.errf(at.line, "missing opcode")
	}
	op.args = rest[next:]
	if p.m != nil {
		if _, ok := p.m.Opcode(op.opcode); !ok {
			return p.errTok(at, op.opcode, "unknown opcode %q", op.opcode)
		}
	}
	if dest != "" {
		id := p.id(dest)
		if p.names[id].def >= 0 {
			return p.errf(at.line, "register %q defined twice (the format is single assignment)", dest)
		}
		p.names[id].def = int32(len(p.ops))
		op.dest = true
	}
	if label != "" {
		id := p.id(label)
		if p.names[id].label >= 0 {
			return p.errf(at.line, "label %q used twice", label)
		}
		p.names[id].label = int32(len(p.ops))
	}
	p.ops = append(p.ops, op)
	return nil
}

// id returns the dense id of name, entering it in the table if new.
func (p *parser) id(name string) int32 {
	if id, ok := p.ids[name]; ok {
		return id
	}
	id := int32(len(p.names))
	p.ids[name] = id
	p.names = append(p.names, nameEnt{def: -1, label: -1})
	return id
}

// nextField returns the first field of s at or after offset i and the
// offset just past it, or "" when s has no more fields. Fields are
// separated by Unicode white space, as strings.Fields splits them, and
// also by commas if commas is set.
func nextField(s string, i int, commas bool) (string, int) {
	for i < len(s) {
		w, sep := sepAt(s, i, commas)
		if !sep {
			break
		}
		i += w
	}
	start := i
	for i < len(s) {
		w, sep := sepAt(s, i, commas)
		if sep {
			break
		}
		i += w
	}
	return s[start:i], i
}

// sepAt reports the width of the rune at s[i] and whether it separates
// fields.
func sepAt(s string, i int, commas bool) (int, bool) {
	if c := s[i]; c < utf8.RuneSelf {
		return 1, asciiSpace[c] || commas && c == ','
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return w, unicode.IsSpace(r)
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func (p *parser) build() (*ir.Loop, error) {
	b := ir.NewBuilder(p.name, p.m)
	b.Grow(len(p.ops), 2*len(p.ops))
	if p.haveFrq {
		b.SetProfile(p.entry, p.loops)
	}
	// A register may be read above its definition, so every defining op
	// gets its future up front; any other name read is an invariant.
	p.futures = make([]ir.Value, len(p.ops))
	for i := range p.ops {
		if p.ops[i].dest {
			p.futures[i] = b.Future()
		}
	}
	srcs := make([]ir.Value, 0, 8)
	for i := range p.ops {
		op := &p.ops[i]
		if op.pred != "" {
			pv, err := p.resolve(b, op.pos, op.pred)
			if err != nil {
				return nil, err
			}
			b.SetPred(pv)
		} else {
			b.ClearPred()
		}
		srcs = srcs[:0]
		var imm int64
		var hasImm bool
		for a, next := nextField(op.args, 0, true); a != ""; a, next = nextField(op.args, next, true) {
			if strings.HasPrefix(a, "#") {
				v, err := strconv.ParseInt(a[1:], 10, 64)
				if err != nil {
					return nil, p.errTok(op.pos, a, "bad immediate %q", a)
				}
				if hasImm {
					return nil, p.errTok(op.pos, a, "duplicate immediate %q (operations take at most one)", a)
				}
				imm, hasImm = v, true
				continue
			}
			v, err := p.resolve(b, op.pos, a)
			if err != nil {
				return nil, err
			}
			srcs = append(srcs, v)
		}
		if op.dest {
			b.DefineAsImm(p.futures[i], op.opcode, imm, srcs...)
		} else {
			b.EffectImm(op.opcode, imm, srcs...)
		}
		if op.comment != "" {
			b.Comment(op.comment)
		}
	}
	b.ClearPred()

	// Builder op i is scanned op i, so a name's op index is its handle.
	for _, d := range p.deps {
		from, err := p.opNamed(d.pos, d.from)
		if err != nil {
			return nil, err
		}
		to, err := p.opNamed(d.pos, d.to)
		if err != nil {
			return nil, err
		}
		if d.hasDelay {
			b.DepDelay(from, to, d.kind, d.dist, d.delay)
		} else {
			b.Dep(from, to, d.kind, d.dist)
		}
	}
	l, err := b.Build()
	if err != nil {
		return nil, &ParseError{Msg: "invalid loop: " + err.Error(), Err: err}
	}
	return l, nil
}

// resolve turns an operand reference "name" or "name@k" into a value: a
// defined register's future k iterations back, or an invariant.
func (p *parser) resolve(b *ir.Builder, at pos, ref string) (ir.Value, error) {
	name, k := ref, 0
	if i := strings.IndexByte(ref, '@'); i >= 0 {
		v, err := strconv.Atoi(ref[i+1:])
		if err != nil || v < 0 {
			return ir.Value{}, p.errTok(at, ref, "bad back-reference %q", ref)
		}
		name, k = ref[:i], v
	}
	if id, ok := p.ids[name]; ok && p.names[id].def >= 0 {
		return p.futures[p.names[id].def].Back(k), nil
	}
	if k != 0 {
		return ir.Value{}, p.errTok(at, ref, "back-reference %q to an undefined (invariant) name", ref)
	}
	return b.Invariant(name), nil
}

// opNamed resolves a dependence endpoint: a label, else a register's
// defining operation.
func (p *parser) opNamed(at pos, name string) (ir.Op, error) {
	if id, ok := p.ids[name]; ok {
		if e := p.names[id]; e.label >= 0 {
			return ir.Op(e.label), nil
		} else if e.def >= 0 {
			return ir.Op(e.def), nil
		}
	}
	return 0, p.errTok(at, name, "unknown operation %q in dependence", name)
}

// Print renders a loop in (approximately) the textual format, using
// register numbers as names. It is meant for inspection, and round-trips
// structurally (same ops, edges, and profile).
func Print(l *ir.Loop) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop %s\n", l.Name)
	fmt.Fprintf(&sb, "profile %d %d\n\n", l.EntryFreq, l.LoopFreq)

	variant := l.VariantRegs()
	name := func(r ir.Reg) string {
		if variant[r] {
			return fmt.Sprintf("v%d", r)
		}
		return fmt.Sprintf("c%d", r)
	}
	ref := func(r ir.Reg, d int) string {
		if d != 0 {
			return fmt.Sprintf("%s@%d", name(r), d)
		}
		return name(r)
	}
	labels := make(map[int]string)
	for i, op := range l.Ops {
		if op.IsPseudo() {
			continue
		}
		labels[i] = fmt.Sprintf("op%d", i)
		if op.Pred != ir.NoReg {
			fmt.Fprintf(&sb, "(%s) ", ref(op.Pred, op.PredDist))
		}
		fmt.Fprintf(&sb, "%s:", labels[i])
		if op.Dest != ir.NoReg {
			fmt.Fprintf(&sb, " %s =", name(op.Dest))
		}
		fmt.Fprintf(&sb, " %s", op.Opcode)
		for si, r := range op.Srcs {
			d := 0
			if op.SrcDists != nil {
				d = op.SrcDists[si]
			}
			if si > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, " %s", ref(r, d))
		}
		if op.Imm != 0 {
			fmt.Fprintf(&sb, ", #%d", op.Imm)
		}
		if op.Comment != "" {
			fmt.Fprintf(&sb, "   ; %s", op.Comment)
		}
		sb.WriteByte('\n')
	}
	// Explicit (non-derivable) edges: memory and anti/output deps.
	var extra []string
	for _, e := range l.Edges {
		switch e.Kind {
		case ir.Mem, ir.Anti, ir.Output:
			kind := map[ir.DepKind]string{ir.Mem: "!mem", ir.Anti: "!anti", ir.Output: "!output"}[e.Kind]
			s := fmt.Sprintf("%s %s -> %s dist %d", kind, labels[e.From], labels[e.To], e.Distance)
			if e.DelayOverride != nil {
				s += fmt.Sprintf(" delay %d", *e.DelayOverride)
			}
			extra = append(extra, s)
		}
	}
	if len(extra) > 0 {
		sb.WriteByte('\n')
		sort.Strings(extra)
		for _, s := range extra {
			sb.WriteString(s)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
