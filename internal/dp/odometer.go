package dp

import (
	"math"
	"sync"
	"time"
)

// Odometer measures a budget's burn rate over a sliding wall-clock
// window — the operator's "how fast is this tenant spending" needle.
// Each successful deduction reports the ledger's new cumulative spend
// via Observe; Rate answers in native units per second over the window,
// and TimeToExhaustion projects when the remaining budget runs out at
// the current rate.
//
// The odometer deliberately tracks CUMULATIVE spend samples rather than
// deltas: a windowed ledger's Spent can drop on a refill tick, and the
// max(0, ·) below keeps a refill from reading as negative burn.
//
// Safe for concurrent use; the clock is injectable for tests (SetNow).
type Odometer struct {
	mu      sync.Mutex
	window  time.Duration
	now     func() time.Time
	samples []odoSample
}

type odoSample struct {
	t     time.Time
	spent float64
}

// DefaultOdometerWindow is the burn-rate window tenants get.
const DefaultOdometerWindow = 60 * time.Second

// NewOdometer returns an odometer over the given window (<= 0 means
// DefaultOdometerWindow).
func NewOdometer(window time.Duration) *Odometer {
	if window <= 0 {
		window = DefaultOdometerWindow
	}
	return &Odometer{window: window, now: time.Now}
}

// SetNow injects a clock (tests).
func (o *Odometer) SetNow(now func() time.Time) {
	o.mu.Lock()
	o.now = now
	o.mu.Unlock()
}

// Observe records the ledger's cumulative spend after a deduction.
func (o *Odometer) Observe(spent float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	// Coalesce bursts: samples closer together than window/256 update in
	// place, bounding memory to ~256 samples plus slack regardless of
	// release rate.
	if n := len(o.samples); n > 0 && now.Sub(o.samples[n-1].t) < o.window/256 {
		o.samples[n-1].spent = spent
		return
	}
	o.samples = append(o.samples, odoSample{t: now, spent: spent})
	o.prune(now)
}

// prune drops samples older than the window. Callers hold o.mu.
func (o *Odometer) prune(now time.Time) {
	cut := now.Add(-o.window)
	i := 0
	for i < len(o.samples) && o.samples[i].t.Before(cut) {
		i++
	}
	if i > 0 {
		o.samples = append(o.samples[:0], o.samples[i:]...)
	}
}

// Rate reports the burn rate in native units per second over the
// window: the spend delta between the oldest in-window sample and the
// newest, divided by the time since that oldest sample. Zero when
// nothing in the window is burning.
func (o *Odometer) Rate() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	o.prune(now)
	if len(o.samples) < 2 {
		return 0
	}
	first, last := o.samples[0], o.samples[len(o.samples)-1]
	dt := now.Sub(first.t).Seconds()
	if dt <= 0 {
		return 0
	}
	d := last.spent - first.spent
	if d < 0 {
		d = 0 // a windowed ledger refilled mid-window; burn is not negative
	}
	return d / dt
}

// TimeToExhaustion projects seconds until the remaining budget runs out
// at the current rate: +Inf when idle (rate 0), 0 when already
// exhausted.
func (o *Odometer) TimeToExhaustion(remaining float64) float64 {
	if remaining <= 0 {
		return 0
	}
	r := o.Rate()
	if r <= 0 {
		return math.Inf(1)
	}
	return remaining / r
}
