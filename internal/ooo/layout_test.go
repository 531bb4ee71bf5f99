package ooo

import (
	"reflect"
	"testing"
)

// TestRingSlotsHoldNoPointers keeps Entry and fetchSlot pointer-free. Retire,
// squash, fetch and Reset clear them on every use; a pointer field would put
// each clear under GC write barriers again. Per-slot storage that needs a
// slice belongs in a core-owned array indexed by the slot (Core.robRAS,
// Core.fqRAS, Core.bypassed).
func TestRingSlotsHoldNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[Entry](), reflect.TypeFor[fetchSlot]()} {
		if f := pointerField(typ); f != "" {
			t.Errorf("%s holds a pointer in field %s", typ.Name(), f)
		}
	}
}

// pointerField names the first field of typ whose type holds a pointer, or
// returns "" if there is none.
func pointerField(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if sub := pointerField(f.Type); sub != "" {
				return f.Name
			}
		}
		return ""
	case reflect.Array:
		if typ.Len() > 0 {
			return pointerField(typ.Elem())
		}
		return ""
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return typ.String()
	}
	return ""
}
