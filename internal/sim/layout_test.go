package sim

import (
	"reflect"
	"testing"

	"iothub/internal/sim/simtest"
)

// TestHotRecordSizes pins the records every schedule, dispatch and device
// completion copies (DESIGN.md §7, "One scheduling API, a 64-byte slot"): a
// field that makes one of them larger makes every event dearer.
func TestHotRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
		max  uintptr
	}{
		{"event slot", event{}, 64},
		{"Arg", Arg{}, 24},
		{"Done", Done{}, 40},
	} {
		if got := reflect.TypeOf(c.v).Size(); got > c.max {
			t.Errorf("%s is %d bytes, want at most %d: see DESIGN.md §7 before growing a hot record", c.name, got, c.max)
		}
	}
}

// TestArgHoldsNoPointer keeps the event payload pointer-free, so an event
// slot's only pointer is its callback and a device's queued completion (a
// Handle and an Arg) has none (DESIGN.md §7): models name their objects by
// index instead.
func TestArgHoldsNoPointer(t *testing.T) {
	for _, v := range []any{Arg{}, Handle(0)} {
		if typ := reflect.TypeOf(v); simtest.MayHoldPointer(typ) {
			t.Errorf("%v can hold a pointer: see DESIGN.md §7", typ)
		}
	}
}
