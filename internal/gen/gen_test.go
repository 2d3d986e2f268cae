package gen_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/gen"
	"repro/internal/regalloc"
)

// TestKernelIsItsSeed: every failure message the differentials print
// names a seed to replay, so a seed must give the same program byte for
// byte, and each of the seeds they draw must allocate.
func TestKernelIsItsSeed(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		k := gen.Kernel(seed)
		if again := asm.Format(gen.Kernel(seed)); again != asm.Format(k) {
			t.Fatalf("seed %d: two programs:\n%s\n%s", seed, asm.Format(k), again)
		}
		if _, err := regalloc.Allocate(k); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, asm.Format(k))
		}
	}
}
