package dpsql

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dp"
	"repro/internal/xrand"
)

func seedLedgerTable(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Run(`CREATE TABLE m (uid STRING USER, v FLOAT)`); err != nil {
		t.Fatal(err)
	}
	tab, err := db.TableByName("m")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	for u := 0; u < 200; u++ {
		uid := fmt.Sprintf("u%03d", u)
		if err := tab.Insert(Str(uid), Float(50+rng.Gaussian())); err != nil {
			t.Fatal(err)
		}
	}
}

// Exec must charge whatever composition backend is installed: a zCDP
// ledger prices each eps query at eps^2/2 in rho, so the same nominal
// budget affords far more small queries than basic composition.
func TestExecChargesZCDPLedger(t *testing.T) {
	db := NewDB()
	seedLedgerTable(t, db)
	led, err := dp.NewZCDPLedger(0.5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	db.SetLedger(led)
	rng := xrand.New(6)

	const eps = 0.05
	if _, err := db.Exec(rng, "SELECT AVG(v) FROM m", eps); err != nil {
		t.Fatal(err)
	}
	if got, want := led.Spent(), eps*eps/2; math.Abs(got-want) > 1e-15 {
		t.Errorf("one query spent rho=%v, want %v", got, want)
	}
	if got, want := db.Remaining(), led.Remaining(); got != want {
		t.Errorf("DB.Remaining() = %v, ledger says %v", got, want)
	}
	// Exhaust: the refusal is ErrBudgetExhausted with rho in the message.
	var lastErr error
	for i := 0; i < 10000 && lastErr == nil; i++ {
		_, lastErr = db.Exec(rng, "SELECT COUNT(*) FROM m", eps)
	}
	if !errors.Is(lastErr, dp.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", lastErr)
	}
}
