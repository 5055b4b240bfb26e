package dp

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// Racing spenders must never jointly overdraw: with a budget of exactly
// k·eps, exactly k of the k+extra concurrent Spend calls may succeed.
// Run with -race; the point is atomic check-and-deduct, not throughput.
func TestBasicLedgerConcurrentSpendExact(t *testing.T) {
	const (
		k     = 64
		extra = 64
		eps   = 0.25
	)
	acct, err := NewBasicLedger(k * eps)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	succeeded, refused := 0, 0
	for i := 0; i < k+extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := acct.Spend(EpsCost(eps))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				succeeded++
			case errors.Is(err, ErrBudgetExhausted):
				refused++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if succeeded != k || refused != extra {
		t.Errorf("succeeded=%d refused=%d, want %d/%d", succeeded, refused, k, extra)
	}
	if got := acct.Spent(); math.Abs(got-k*eps) > 1e-9 {
		t.Errorf("Spent() = %v, want %v", got, k*eps)
	}
	if got := acct.Remaining(); got > 1e-9 {
		t.Errorf("Remaining() = %v, want 0", got)
	}
}

// Readers racing a writer must see internally consistent totals.
func TestBasicLedgerConcurrentReaders(t *testing.T) {
	acct, err := NewBasicLedger(1000)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = acct.Spend(EpsCost(0.001))
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if acct.Spent() < 0 || acct.Remaining() > acct.Total() {
					t.Error("inconsistent ledger state")
					return
				}
			}
		}()
	}
	wg.Wait()
}
