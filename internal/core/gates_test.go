package core

import (
	"reflect"
	"testing"
)

// The gate sets are the policies' semantic contract with the static
// analyzer; pin them exactly so a gate edit shows up here before it shows up
// as a census drift.
func TestGatesPerPolicy(t *testing.T) {
	want := map[string][]Gate{
		"OoO":        nil,
		"Permissive": {{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve}},
		"Permissive+BR": {
			{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve},
			{EdgeLoadUse, ScopeBypassingLoad, ReleaseStoreAddrsResolve},
		},
		"Strict": {
			{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve},
			{EdgeAnyUse, ScopeUnderGuard, ReleaseGuardsResolve},
		},
		"Strict+BR": {
			{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve},
			{EdgeAnyUse, ScopeUnderGuard, ReleaseGuardsResolve},
			{EdgeLoadUse, ScopeBypassingLoad, ReleaseStoreAddrsResolve},
		},
		"RestrictedLoads": {{EdgeLoadUse, ScopeAlways, ReleaseEldest}},
		"FullProtection": {
			{EdgeLoadUse, ScopeUnderGuard, ReleaseGuardsResolve},
			{EdgeAnyUse, ScopeUnderGuard, ReleaseGuardsResolve},
			{EdgeLoadUse, ScopeBypassingLoad, ReleaseStoreAddrsResolve},
			{EdgeLoadUse, ScopeAlways, ReleaseEldest},
		},
		"InvisiSpec-Spectre": {{EdgeFill, ScopeUnderGuard, ReleaseGuardsResolve}},
		"InvisiSpec-Future":  {{EdgeFill, ScopeAlways, ReleaseRetire}},
	}
	for _, p := range All() {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("%s: new policy with no pinned gate set — add it here and to the fuzz census", p.Name)
			continue
		}
		if got := p.Gates; !reflect.DeepEqual(got, w) {
			t.Errorf("%s: Gates = %v, want %v", p.Name, got, w)
		}
	}
	if len(want) != len(All()) {
		t.Fatalf("pinned %d gate sets for %d policies", len(want), len(All()))
	}
}

// The core must enforce something exactly for the policies that gate
// something (Secure): the verdict engine reads an empty gate list as "every
// chain fires", and a secure list that compiled to no rule would let the
// core fail open where the analyzer reports a block.
func TestGatesSecureIffNonEmpty(t *testing.T) {
	for _, p := range All() {
		if enforces := Compile(p.Gates) != (Rules{}); enforces != p.Secure() {
			t.Errorf("%s: compiled rules enforce something = %v, Secure() = %v", p.Name, enforces, p.Secure())
		}
	}
}
