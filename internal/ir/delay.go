package ir

import (
	"fmt"

	"modsched/internal/machine"
)

// DelayModel selects which column of Table 1 is used when converting a
// dependence edge into a minimum issue-time separation.
type DelayModel int

const (
	// VLIWDelays is the classical VLIW model with non-unit architectural
	// latencies: anti- and output-dependence delays may be negative when
	// the successor's latency is large.
	VLIWDelays DelayModel = iota
	// ConservativeDelays assumes only that the successor's latency is at
	// least 1, appropriate for superscalar processors (the "Conservative
	// Delay" column of Table 1).
	ConservativeDelays
)

func (m DelayModel) String() string {
	switch m {
	case VLIWDelays:
		return "vliw"
	case ConservativeDelays:
		return "conservative"
	default:
		return fmt.Sprintf("DelayModel(%d)", int(m))
	}
}

// ParseDelayModel is the inverse of DelayModel.String for the named
// delay models.
func ParseDelayModel(s string) (DelayModel, error) {
	for m := VLIWDelays; m <= ConservativeDelays; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return VLIWDelays, fmt.Errorf("unknown delay model %q", s)
}

// EdgeDelay computes the Table 1 delay for a dependence of kind k between
// a predecessor with latency predLat and a successor with latency succLat.
//
//	Flow:    Latency(pred)                      (both models)
//	Anti:    1 - Latency(succ)   | conservative: 0
//	Output:  1 + Latency(pred) - Latency(succ)  | conservative: Latency(pred)
//	Control: Latency(pred)  (START/STOP bracketing and explicit ordering)
//	Mem:     1               (strict memory ordering; override per edge)
func EdgeDelay(k DepKind, predLat, succLat int, model DelayModel) int {
	switch k {
	case Flow, Control:
		return predLat
	case Anti:
		if model == ConservativeDelays {
			return 0
		}
		return 1 - succLat
	case Output:
		if model == ConservativeDelays {
			return predLat
		}
		return 1 + predLat - succLat
	case Mem:
		return 1
	default:
		panic(fmt.Sprintf("ir: unknown dependence kind %d", int(k)))
	}
}

// Delays computes the per-edge delays for a loop against a machine under
// the given delay model. The result is indexed like loop.Edges. Edges with
// a DelayOverride use the override verbatim.
func Delays(l *Loop, m *machine.Machine, model DelayModel) ([]int, error) {
	lat := make([]int, len(l.Ops))
	for i, op := range l.Ops {
		oc, ok := m.Opcode(op.Opcode)
		if !ok {
			return nil, fmt.Errorf("ir: loop %s op %d: machine %s has no opcode %q",
				l.Name, i, m.Name, op.Opcode)
		}
		lat[i] = oc.Latency
	}
	out := make([]int, len(l.Edges))
	for ei, e := range l.Edges {
		if e.DelayOverride != nil {
			out[ei] = *e.DelayOverride
			continue
		}
		out[ei] = EdgeDelay(e.Kind, lat[e.From], lat[e.To], model)
	}
	return out, nil
}
