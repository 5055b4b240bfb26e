package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dp"
)

// openAuditTenant creates a store + tenant and opens its audit log.
func openAuditTenant(t *testing.T) (*Store, *AuditLog, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := st.CreateTenant("acme", TenantConfig{Epsilon: 4, Accounting: "pure"}); err != nil {
		t.Fatal(err)
	}
	al, err := st.OpenAudit("acme")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { al.Close() })
	return st, al, dir
}

func appendN(t *testing.T, al *AuditLog, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := al.Append(&AuditRecord{
			ReleaseID: "r-test-" + string(rune('a'+i%26)),
			Path:      "estimate",
			Mechanism: "mean",
			Cost:      dp.EpsCost(0.5),
			Unit:      "eps",
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAuditAppendAndPage(t *testing.T) {
	_, al, _ := openAuditTenant(t)
	appendN(t, al, 7)
	if al.Len() != 7 {
		t.Fatalf("Len = %d, want 7", al.Len())
	}
	// Page through in chunks of 3: seqs must be contiguous and exhaustive.
	var got []uint64
	after := uint64(0)
	for {
		page, err := al.Page(after, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		for _, r := range page {
			got = append(got, r.Seq)
		}
		after = page[len(page)-1].Seq
	}
	if len(got) != 7 {
		t.Fatalf("paged %d records, want 7: %v", len(got), got)
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
	// A page past the end is empty, not an error.
	if page, err := al.Page(7, 10); err != nil || len(page) != 0 {
		t.Fatalf("past-end page = %v, %v", page, err)
	}
}

func TestAuditTornTailTruncatedOnOpen(t *testing.T) {
	st, al, dir := openAuditTenant(t)
	appendN(t, al, 3)
	if err := al.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append garbage that is not a complete valid line.
	path := filepath.Join(dir, "acme", auditName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":4,"release`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	al2, err := st.OpenAudit("acme")
	if err != nil {
		t.Fatal(err)
	}
	defer al2.Close()
	if al2.Len() != 3 {
		t.Fatalf("Len after torn-tail reopen = %d, want 3", al2.Len())
	}
	page, err := al2.Page(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 3 {
		t.Fatalf("paged %d records after truncation, want 3", len(page))
	}
	// The log keeps appending cleanly at the truncated tail.
	appendN(t, al2, 1)
	if al2.Len() != 4 {
		t.Fatalf("Len after post-truncation append = %d, want 4", al2.Len())
	}
	page, err = al2.Page(3, 10)
	if err != nil || len(page) != 1 || page[0].Seq != 4 {
		t.Fatalf("post-truncation page = %+v, %v", page, err)
	}
}

func TestAuditSurvivesReopen(t *testing.T) {
	st, al, _ := openAuditTenant(t)
	appendN(t, al, 5)
	if err := al.Close(); err != nil {
		t.Fatal(err)
	}
	al2, err := st.OpenAudit("acme")
	if err != nil {
		t.Fatal(err)
	}
	defer al2.Close()
	if al2.Len() != 5 {
		t.Fatalf("Len after reopen = %d, want 5", al2.Len())
	}
	// Seqs continue where they left off.
	appendN(t, al2, 1)
	page, err := al2.Page(5, 10)
	if err != nil || len(page) != 1 || page[0].Seq != 6 {
		t.Fatalf("continued page = %+v, %v", page, err)
	}
}

func TestAuditBadTenantID(t *testing.T) {
	st, _, _ := openAuditTenant(t)
	if _, err := st.OpenAudit("../evil"); err == nil {
		t.Fatal("traversal tenant id accepted")
	}
}

// TestOpenAuditRefusesTenantWithoutLog: an audit file needs its tenant's
// open WAL — appends become durable only on that log's commit barrier —
// so OpenAudit refuses a tenant with no open log and creates no file.
func TestOpenAuditRefusesTenantWithoutLog(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.Mkdir(filepath.Join(dir, "acme"), 0o755); err != nil {
		t.Fatal(err)
	}
	if al, err := st.OpenAudit("acme"); err == nil {
		al.Close()
		t.Fatal("OpenAudit accepted a tenant with no open log")
	}
	if _, err := os.Stat(filepath.Join(dir, "acme", auditName)); !os.IsNotExist(err) {
		t.Fatalf("refused OpenAudit left an audit file: %v", err)
	}
}
