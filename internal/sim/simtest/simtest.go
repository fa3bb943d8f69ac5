// Package simtest holds test helpers shared by the simulation kernel and the
// device models built on it.
package simtest

import "reflect"

// MayHoldPointer reports whether a value of type typ can hold a pointer
// (uintptr included, as a disguised one). A hot record for which it reports
// false is never scanned by the collector, and storing or clearing one takes
// no write barrier (DESIGN.md §7).
func MayHoldPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && MayHoldPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if MayHoldPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
