package fluid

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestActivitySizeOneClass pins the Activity layout to the 128-byte
// allocation size class: every transfer allocates one, so a field that
// pushes it into the next class costs allocation volume on every run.
func TestActivitySizeOneClass(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("layout pinned on amd64")
	}
	if got := unsafe.Sizeof(Activity{}); got > 128 {
		t.Fatalf("unsafe.Sizeof(Activity{}) = %d, want <= 128", got)
	}
}
