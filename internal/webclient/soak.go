package webclient

import (
	"errors"
	"sync"
	"time"
)

// SoakConfig drives Soak: sustained browser traffic against a gateway
// for a fixed wall-clock duration — the workload behind gatewayd soak
// checks.
type SoakConfig struct {
	// Client performs the requests. Required.
	Client *Client
	// URLs are fetched round-robin per worker. Required (at least one).
	URLs []string
	// Duration is how long the soak runs. Required.
	Duration time.Duration
	// Concurrency is the number of worker loops. Default 2.
	Concurrency int
	// Pause is an optional per-worker delay between requests (0 = as fast
	// as the stack allows).
	Pause time.Duration
}

// SoakResult summarizes a soak run.
type SoakResult struct {
	Requests int64         `json:"requests"`
	Errors   int64         `json:"errors"` // transport-level failures
	Statuses map[int]int64 `json:"statuses"`
	Elapsed  time.Duration `json:"-"`
}

// OK reports whether every request completed with the given status.
func (r *SoakResult) OK(status int) bool {
	return r.Errors == 0 && r.Statuses[status] == r.Requests
}

// Soak runs Concurrency worker loops fetching the URLs round-robin until
// Duration elapses, then reports what came back. Individual request
// failures are counted, not fatal — a soak exists to measure how the
// stack degrades, so it must outlive the errors it finds.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Client == nil {
		return nil, errors.New("webclient: soak needs a client")
	}
	if len(cfg.URLs) == 0 {
		return nil, errors.New("webclient: soak needs at least one URL")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("webclient: soak needs a positive duration")
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 2
	}

	res := &SoakResult{Statuses: map[int]int64{}}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for i := offset; time.Now().Before(deadline); i++ {
				page, err := cfg.Client.Get(cfg.URLs[i%len(cfg.URLs)])
				mu.Lock()
				res.Requests++
				if err != nil {
					res.Errors++
				} else {
					res.Statuses[page.Status]++
				}
				mu.Unlock()
				if cfg.Pause > 0 {
					time.Sleep(cfg.Pause)
				}
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}
