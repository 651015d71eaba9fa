package opt

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// CheckPhaseC runs checkPhaseC on f and, before register assignment,
// on its register-assigned form (checkForms).
func CheckPhaseC(t *testing.T, what string, f *rtl.Func, d *machine.Desc) {
	t.Helper()
	checkForms(t, what, f, d, checkPhaseC)
}
