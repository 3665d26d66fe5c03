package legacy

import (
	"bytes"
	"fmt"
	"testing"

	"helium/internal/vm"
)

// testConfigs are the geometries the corpus is checked at: two ordinary
// sizes, then edge geometries whose widths cover width 1 and every unroll
// remainder, each at heights 1, 2 and 5.
var testConfigs = append([]Config{
	{Width: 22, Height: 10, Seed: 1},
	{Width: 21, Height: 9, Seed: 7}, // odd width exercises the peeled remainders
}, edgeConfigs()...)

func edgeConfigs() []Config {
	var cs []Config
	for _, w := range []int{1, 2, 3, 5, 7, 9, 13, 17} {
		for _, h := range []int{1, 2, 5} {
			cs = append(cs, Config{Width: w, Height: h, Seed: 3})
		}
	}
	return cs
}

// TestKernelsMatchReference runs every corpus kernel on the VM and checks
// the emulated output against the pure Go reference implementation.
func TestKernelsMatchReference(t *testing.T) {
	for _, k := range Kernels() {
		for _, cfg := range testConfigs {
			t.Run(fmt.Sprintf("%s/%s", k.Name, cfg), func(t *testing.T) {
				inst := k.Instantiate(cfg)
				got, err := inst.RunVM()
				if err != nil {
					t.Fatalf("RunVM: %v", err)
				}
				if !bytes.Equal(got, inst.Reference) {
					t.Fatalf("VM output differs from reference (%d/%d samples differ)",
						diffCount(got, inst.Reference), len(inst.Reference))
				}
			})
		}
	}
}

// TestFilterOffLeavesCopy checks the host harness contract the localization
// relies on: with the filter flag off, the program still runs its baseline
// copy, so the output equals the input.
func TestFilterOffLeavesCopy(t *testing.T) {
	for _, k := range Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			inst := k.Instantiate(testConfigs[0])
			m := vm.NewMachine(inst.Prog)
			inst.Setup(m, false)
			if err := m.Run(0); err != nil {
				t.Fatalf("Run: %v", err)
			}
			want := inst.OffReference
			if want == nil {
				want = inst.InputInterior
			}
			got := inst.ReadOutput(m)
			if !bytes.Equal(got, want) {
				t.Fatalf("filter-off output is not the baseline copy (%d/%d samples differ)",
					diffCount(got, want), len(got))
			}
		})
	}
}

func diffCount(a, b []byte) int {
	n := 0
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			n++
		}
	}
	return n
}
