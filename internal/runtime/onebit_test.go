package runtime_test

import (
	"fmt"
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/transport"
)

// TestAlignBitsToRank0ChecksLength feeds a receiving rank a consensus
// frame of the wrong length, as a rank 0 configured with another
// dimension would send it: the rank must stop with the named
// consensus-align error, not keep a half-aligned aggregate (short frame)
// or fail on an index inside bitvec (long frame). A frame of the right
// length is the control.
func TestAlignBitsToRank0ChecksLength(t *testing.T) {
	const dim = 130
	for _, tc := range []struct {
		name    string
		sent    int
		wantErr string
	}{
		{"short", dim - 30, "runtime: rank 1 consensus align: rank 0 sent 100 bits, want 130"},
		{"long", dim + 70, "runtime: rank 1 consensus align: rank 0 sent 200 bits, want 130"},
		{"exact", dim, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fabric := transport.NewLoopback(2)
			defer fabric.Close()

			sent := bitvec.New(tc.sent)
			sent.FillBernoulli(rng.New(uint64(tc.sent)), 0.5)
			if err := fabric.Endpoint(0).Send(1, transport.Packet{Data: sent.Marshal()}); err != nil {
				t.Fatal(err)
			}

			bits := bitvec.New(dim)
			defer func() {
				got := ""
				if r := recover(); r != nil {
					got = fmt.Sprint(r)
				}
				if got != tc.wantErr {
					t.Fatalf("panic %q, want %q", got, tc.wantErr)
				}
				if tc.wantErr == "" && !bits.Equal(sent) {
					t.Fatal("aligned aggregate differs from rank 0's")
				}
			}()
			runtime.AlignBitsToRank0(fabric.Endpoint(1), bits)
		})
	}
}
