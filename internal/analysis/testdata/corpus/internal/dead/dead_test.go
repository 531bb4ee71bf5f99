package dead

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 0 {
		t.Fatal("TestOnly")
	}
}
