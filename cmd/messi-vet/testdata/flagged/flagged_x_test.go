package flagged_test

import "repro/internal/fault"

func arm() error {
	return fault.Arm("no.such.point", fault.Spec{})
}
