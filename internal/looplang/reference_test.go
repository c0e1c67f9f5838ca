package looplang_test

import (
	"fmt"
	"strconv"
	"strings"

	"modsched/internal/ir"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

// referenceParse is the strings.Split/strings.Fields parser that Parse
// replaced, kept verbatim as the oracle for FuzzParseMatchesReference: it
// allocates per line and per token, but its behaviour is the contract.
func referenceParse(src string, m *machine.Machine) (*ir.Loop, error) {
	p := &parser{m: m}
	if err := p.scan(src); err != nil {
		return nil, err
	}
	return p.build()
}

type rawOp struct {
	line    int
	label   string
	pred    string // predicate name (may carry @k)
	dest    string
	opcode  string
	args    []string
	comment string
}

type rawDep struct {
	line     int
	kind     ir.DepKind
	from, to string
	dist     int
	delay    *int
}

type parser struct {
	m       *machine.Machine
	lines   []string // raw source lines, for error columns
	name    string
	entry   int64
	loops   int64
	haveFrq bool
	ops     []rawOp
	deps    []rawDep
	defined map[string]int // name -> op index defining it
}

func (p *parser) scan(src string) error {
	p.defined = make(map[string]int)
	p.lines = strings.Split(src, "\n")
	for lineNo, raw := range p.lines {
		n := lineNo + 1
		line := raw
		// strip comments
		comment := ""
		if i := strings.Index(line, ";"); i >= 0 {
			comment = strings.TrimSpace(line[i+1:])
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "loop":
			if len(fields) != 2 {
				return p.errf(n, "usage: loop NAME")
			}
			if p.name != "" {
				return p.errTok(n, fields[0], "duplicate 'loop' header (already named %q)", p.name)
			}
			p.name = fields[1]
			continue
		case "profile":
			if len(fields) != 3 {
				return p.errf(n, "usage: profile ENTRYFREQ LOOPFREQ")
			}
			e, err1 := strconv.ParseInt(fields[1], 10, 64)
			l, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return p.errf(n, "profile wants two integers")
			}
			p.entry, p.loops, p.haveFrq = e, l, true
			continue
		}
		if strings.HasPrefix(fields[0], "!") {
			switch fields[0] {
			case "!mem", "!anti", "!output", "!flow":
				dep, err := p.parseDep(n, fields)
				if err != nil {
					return err
				}
				p.deps = append(p.deps, dep)
			default:
				return p.errTok(n, fields[0], "unknown dependence kind %q (want !mem, !anti, !output, or !flow)", fields[0])
			}
			continue
		}
		op, err := p.parseOp(n, line, comment)
		if err != nil {
			return err
		}
		if op.dest != "" {
			if _, dup := p.defined[op.dest]; dup {
				return p.errf(n, "register %q defined twice (the format is single assignment)", op.dest)
			}
			p.defined[op.dest] = len(p.ops)
		}
		if op.label != "" {
			if _, dup := p.defined["label:"+op.label]; dup {
				return p.errf(n, "label %q used twice", op.label)
			}
			p.defined["label:"+op.label] = len(p.ops)
		}
		p.ops = append(p.ops, op)
	}
	if p.name == "" {
		return &looplang.ParseError{Msg: "missing 'loop NAME' header"}
	}
	if len(p.ops) == 0 {
		return &looplang.ParseError{Msg: fmt.Sprintf("loop %s has no operations", p.name)}
	}
	return nil
}

func (p *parser) parseDep(n int, fields []string) (rawDep, error) {
	// !kind FROM -> TO dist N [delay D]
	kind := map[string]ir.DepKind{
		"!mem": ir.Mem, "!anti": ir.Anti, "!output": ir.Output, "!flow": ir.Flow,
	}[fields[0]]
	if len(fields) < 6 || fields[2] != "->" || fields[4] != "dist" {
		return rawDep{}, p.errf(n, "usage: %s FROM -> TO dist N [delay D]", fields[0])
	}
	dist, err := strconv.Atoi(fields[5])
	if err != nil || dist < 0 {
		return rawDep{}, p.errTok(n, fields[5], "bad distance %q", fields[5])
	}
	d := rawDep{line: n, kind: kind, from: fields[1], to: fields[3], dist: dist}
	switch {
	case len(fields) == 6:
		// no delay clause
	case fields[6] == "delay" && len(fields) == 7:
		return rawDep{}, p.errTok(n, fields[6], "'delay' wants a value: %s FROM -> TO dist N delay D", fields[0])
	case fields[6] == "delay" && len(fields) == 8:
		v, err := strconv.Atoi(fields[7])
		if err != nil {
			return rawDep{}, p.errTok(n, fields[7], "bad delay %q", fields[7])
		}
		d.delay = &v
	case fields[6] == "delay":
		return rawDep{}, p.errTok(n, fields[8], "unexpected %q after delay value", fields[8])
	default:
		return rawDep{}, p.errTok(n, fields[6], "unexpected %q after dependence (want nothing or 'delay D')", fields[6])
	}
	return d, nil
}

func (p *parser) parseOp(n int, line, comment string) (rawOp, error) {
	op := rawOp{line: n, comment: comment}
	rest := line
	// optional predicate "(p)"
	if strings.HasPrefix(rest, "(") {
		end := strings.Index(rest, ")")
		if end < 0 {
			return op, p.errf(n, "unterminated predicate")
		}
		op.pred = strings.TrimSpace(rest[1:end])
		if op.pred == "" {
			return op, p.errf(n, "empty predicate '()'")
		}
		rest = strings.TrimSpace(rest[end+1:])
	}
	// optional label "name:"
	if i := strings.Index(rest, ":"); i >= 0 && !strings.Contains(rest[:i], " ") && !strings.Contains(rest[:i], "=") {
		op.label = strings.TrimSpace(rest[:i])
		rest = strings.TrimSpace(rest[i+1:])
	}
	// optional "dest ="
	if i := strings.Index(rest, "="); i >= 0 {
		op.dest = strings.TrimSpace(rest[:i])
		if strings.ContainsAny(op.dest, " \t,@#") || op.dest == "" {
			return op, p.errTok(n, op.dest, "bad destination %q", op.dest)
		}
		rest = strings.TrimSpace(rest[i+1:])
	}
	fields := strings.Fields(strings.ReplaceAll(rest, ",", " "))
	if len(fields) == 0 {
		return op, p.errf(n, "missing opcode")
	}
	op.opcode = fields[0]
	op.args = fields[1:]
	if p.m != nil {
		if _, ok := p.m.Opcode(op.opcode); !ok {
			return op, p.errTok(n, op.opcode, "unknown opcode %q", op.opcode)
		}
	}
	return op, nil
}

// splitRef splits "name@k" into (name, k).
func splitRef(s string) (string, int, error) {
	if i := strings.Index(s, "@"); i >= 0 {
		k, err := strconv.Atoi(s[i+1:])
		if err != nil || k < 0 {
			return "", 0, fmt.Errorf("bad back-reference %q", s)
		}
		return s[:i], k, nil
	}
	return s, 0, nil
}

func (p *parser) build() (*ir.Loop, error) {
	b := ir.NewBuilder(p.name, p.m)
	if p.haveFrq {
		b.SetProfile(p.entry, p.loops)
	}
	// Pre-create futures for every defined name; unseen names become
	// invariants on demand.
	futures := make(map[string]ir.Value)
	for name := range p.defined {
		if !strings.HasPrefix(name, "label:") {
			futures[name] = b.Future()
		}
	}
	resolve := func(line int, refStr string) (ir.Value, error) {
		name, k, err := splitRef(refStr)
		if err != nil {
			return ir.Value{}, p.errTok(line, refStr, "%v", err)
		}
		if v, ok := futures[name]; ok {
			return v.Back(k), nil
		}
		if k != 0 {
			return ir.Value{}, p.errTok(line, refStr, "back-reference %q to an undefined (invariant) name", refStr)
		}
		return b.Invariant(name), nil
	}

	handles := make([]ir.Op, len(p.ops))
	for i, op := range p.ops {
		if op.pred != "" {
			pv, err := resolve(op.line, op.pred)
			if err != nil {
				return nil, err
			}
			b.SetPred(pv)
		} else {
			b.ClearPred()
		}
		var srcs []ir.Value
		var imm int64
		var hasImm bool
		for _, a := range op.args {
			if strings.HasPrefix(a, "#") {
				v, err := strconv.ParseInt(a[1:], 10, 64)
				if err != nil {
					return nil, p.errTok(op.line, a, "bad immediate %q", a)
				}
				if hasImm {
					return nil, p.errTok(op.line, a, "duplicate immediate %q (operations take at most one)", a)
				}
				imm, hasImm = v, true
				continue
			}
			v, err := resolve(op.line, a)
			if err != nil {
				return nil, err
			}
			srcs = append(srcs, v)
		}
		if op.dest != "" {
			v := b.DefineAsImm(futures[op.dest], op.opcode, imm, srcs...)
			handles[i] = b.OpOf(v)
		} else {
			handles[i] = b.EffectImm(op.opcode, imm, srcs...)
		}
		if op.comment != "" {
			b.Comment(op.comment)
		}
	}
	b.ClearPred()

	lookup := func(line int, name string) (ir.Op, error) {
		if idx, ok := p.defined["label:"+name]; ok {
			return handles[idx], nil
		}
		if idx, ok := p.defined[name]; ok {
			return handles[idx], nil
		}
		return 0, p.errTok(line, name, "unknown operation %q in dependence", name)
	}
	for _, d := range p.deps {
		from, err := lookup(d.line, d.from)
		if err != nil {
			return nil, err
		}
		to, err := lookup(d.line, d.to)
		if err != nil {
			return nil, err
		}
		if d.delay != nil {
			b.DepDelay(from, to, d.kind, d.dist, *d.delay)
		} else {
			b.Dep(from, to, d.kind, d.dist)
		}
	}
	l, err := b.Build()
	if err != nil {
		return nil, &looplang.ParseError{Msg: "invalid loop: " + err.Error(), Err: err}
	}
	return l, nil
}

// errf builds a line-positioned ParseError (column unknown).
func (p *parser) errf(line int, format string, args ...any) error {
	return &looplang.ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// errTok builds a ParseError positioned at the first occurrence of tok on
// the given source line; the column is omitted when the token cannot be
// located (e.g. it was synthesized during scanning).
func (p *parser) errTok(line int, tok, format string, args ...any) error {
	col := 0
	if tok != "" && line >= 1 && line <= len(p.lines) {
		if i := indexToken(p.lines[line-1], tok); i >= 0 {
			col = i + 1
		}
	}
	return &looplang.ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// indexToken finds tok in s preferring matches delimited by separators, so
// short tokens (a register name, a number) point at the operand rather
// than at an accidental substring earlier in the line.
func indexToken(s, tok string) int {
	isSep := func(b byte) bool {
		switch b {
		case ' ', '\t', ',', '(', ')', '=', ':', ';':
			return true
		}
		return false
	}
	for i := 0; i+len(tok) <= len(s); i++ {
		if s[i:i+len(tok)] != tok {
			continue
		}
		leftOK := i == 0 || isSep(s[i-1])
		rightOK := i+len(tok) == len(s) || isSep(s[i+len(tok)])
		if leftOK && rightOK {
			return i
		}
	}
	// Fall back to a plain substring match.
	for i := 0; i+len(tok) <= len(s); i++ {
		if s[i:i+len(tok)] == tok {
			return i
		}
	}
	return -1
}
