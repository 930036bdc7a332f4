package flight

import (
	"fmt"
	"testing"
	"time"
)

// TestSamplerNeverDropsErrorsOrSlow is the tail-sampling property: no
// combination of rate, status >= 500, and slow total may ever drop.
func TestSamplerNeverDropsErrorsOrSlow(t *testing.T) {
	for _, rate := range []float64{0, 0.001, 0.5, 1} {
		s := Sampler{Rate: rate, SlowThreshold: 100 * time.Millisecond}
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("trace-%d", i)
			for _, status := range []int{500, 502, 503, 599} {
				if got := s.Decide(status, time.Millisecond, id); got != KeptError {
					t.Fatalf("rate=%g status=%d id=%s: %q, want %q", rate, status, id, got, KeptError)
				}
			}
			for _, total := range []time.Duration{100 * time.Millisecond, time.Second} {
				if got := s.Decide(200, total, id); got != KeptSlow {
					t.Fatalf("rate=%g total=%v id=%s: %q, want %q", rate, total, id, got, KeptSlow)
				}
			}
		}
	}
}

func TestSamplerHealthyTail(t *testing.T) {
	healthy := func(s Sampler, id string) string {
		return s.Decide(200, time.Millisecond, id)
	}
	zero := Sampler{Rate: 0, SlowThreshold: time.Second}
	one := Sampler{Rate: 1, SlowThreshold: time.Second}
	half := Sampler{Rate: 0.5, SlowThreshold: time.Second}
	kept := 0
	const n = 4000
	for i := 0; i < n; i++ {
		// Knuth-scrambled IDs: sequential "req-%d" strings are too
		// self-similar for FNV to spread evenly at this sample size.
		id := fmt.Sprintf("%08x", uint32(i)*2654435761)
		if got := healthy(zero, id); got != Dropped {
			t.Fatalf("rate 0 kept %s: %q", id, got)
		}
		if got := healthy(one, id); got != KeptSampled {
			t.Fatalf("rate 1 dropped %s: %q", id, got)
		}
		d := healthy(half, id)
		if d != healthy(half, id) {
			t.Fatalf("decision for %s is not deterministic", id)
		}
		if d == KeptSampled {
			kept++
		}
	}
	if frac := float64(kept) / n; frac < 0.45 || frac > 0.55 {
		t.Errorf("rate 0.5 kept %.3f of healthy requests, want ~0.5", frac)
	}
}

// TestSamplerZeroThresholdKeepsEverything: the convention of the
// sampler's own zero value.
func TestSamplerZeroThresholdKeepsEverything(t *testing.T) {
	s := Sampler{Rate: 0, SlowThreshold: 0}
	if got := s.Decide(200, time.Microsecond, "x"); got != KeptSlow {
		t.Fatalf("zero threshold: %q, want %q", got, KeptSlow)
	}
}
