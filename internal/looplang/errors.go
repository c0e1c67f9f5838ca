package looplang

import (
	"fmt"
	"strings"
)

// ParseError describes a malformed loop-format input. Every error returned
// by Parse is (or wraps) a *ParseError, so callers can dispatch with
// errors.As and report source positions.
//
// Line and Col are 1-based. Col is 0 when only the line is known (e.g. a
// malformed directive), and Line is 0 for whole-input failures (missing
// header, empty body) and for semantic errors raised while assembling the
// loop from already-scanned text.
type ParseError struct {
	Line, Col int
	Msg       string
	Err       error // underlying cause, when the failure wraps another error
}

func (e *ParseError) Error() string {
	switch {
	case e.Line > 0 && e.Col > 0:
		return fmt.Sprintf("looplang: line %d:%d: %s", e.Line, e.Col, e.Msg)
	case e.Line > 0:
		return fmt.Sprintf("looplang: line %d: %s", e.Line, e.Msg)
	default:
		return "looplang: " + e.Msg
	}
}

// Unwrap exposes the underlying cause (possibly nil) to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// errf builds a line-positioned ParseError (column unknown).
func (p *parser) errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// errTok builds a ParseError positioned at the first occurrence of tok on
// the line at; the column is omitted when the token cannot be located
// (e.g. it was synthesized during scanning).
func (p *parser) errTok(at pos, tok, format string, args ...any) error {
	col := 0
	if tok != "" {
		line := p.src[at.at:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		if i := indexToken(line, tok); i >= 0 {
			col = i + 1
		}
	}
	return &ParseError{Line: at.line, Col: col, Msg: fmt.Sprintf(format, args...)}
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
