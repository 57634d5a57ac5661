package replay

import (
	"reflect"
	"testing"

	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// TestDefaultEngineIsBytecode guards the engine default every replay path
// shares (Session.Replay, corpus.InProcessRunner, fleet.WorkerCore): a zero
// Options.Engine must resolve to the bytecode VM. The tree-walking
// interpreter is the differential-testing oracle and must only ever run
// when named explicitly.
func TestDefaultEngineIsBytecode(t *testing.T) {
	f := buildFixture(t, instrument.MethodAll)
	eng := New(f.prog, f.spec, world.NewRegistry(), f.rec, Options{})
	got := reflect.ValueOf(eng.opts.Engine).Pointer()
	if got == reflect.ValueOf(vm.TreeFactory).Pointer() {
		t.Fatal("nil Options.Engine resolved to vm.TreeFactory, the oracle; want ir.Engine")
	}
	if got != reflect.ValueOf(ir.Engine).Pointer() {
		t.Fatal("nil Options.Engine did not resolve to ir.Engine")
	}
	tree := New(f.prog, f.spec, world.NewRegistry(), f.rec, Options{Engine: vm.TreeFactory})
	if reflect.ValueOf(tree.opts.Engine).Pointer() != reflect.ValueOf(vm.TreeFactory).Pointer() {
		t.Fatal("an explicit vm.TreeFactory was overridden")
	}
}
