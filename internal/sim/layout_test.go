package sim

import (
	"reflect"
	"testing"
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
// slot's only pointer is its callback (DESIGN.md §7): models name their
// objects by index instead.
func TestArgHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(Arg{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); mayHoldPointer(f.Type) {
			t.Errorf("Arg.%s is a %v, which can hold a pointer: see DESIGN.md §7", f.Name, f.Type)
		}
	}
}

// mayHoldPointer reports whether a value of type typ can hold a pointer
// (uintptr included, as a disguised one).
func mayHoldPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && mayHoldPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if mayHoldPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
