package sqldb

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// --- persistence ---

func TestDumpRestoreRoundTrip(t *testing.T) {
	s := mustSession(t)
	mustExec(t, s, "CREATE INDEX price_ix ON products (price)")
	var buf bytes.Buffer
	if err := s.db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{"CREATE TABLE products", "CREATE TABLE urldb",
		"PRIMARY KEY", "CREATE INDEX price_ix"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	db2 := NewDatabase("RESTORED")
	if err := Restore(db2, strings.NewReader(dump)); err != nil {
		t.Fatalf("restore: %v\ndump:\n%s", err, dump)
	}
	s2 := NewSession(db2)
	for _, q := range []string{
		"SELECT COUNT(*) FROM urldb",
		"SELECT COUNT(*) FROM products",
		"SELECT SUM(qty) FROM products",
	} {
		a := mustExec(t, s, q)
		b := mustExec(t, s2, q)
		if a.Rows[0][0] != b.Rows[0][0] {
			t.Errorf("%s: %v vs %v", q, a.Rows[0][0], b.Rows[0][0])
		}
	}
	// Indexes restored and functional.
	res := mustExec(t, s2, "SELECT title FROM urldb WHERE url = 'http://www.eso.org'")
	if len(res.Rows) != 1 {
		t.Fatal("pk index not restored")
	}
	// Dumps of original and restored databases are identical.
	var buf2 bytes.Buffer
	if err := db2.Dump(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != dump {
		t.Error("dump is not a fixed point")
	}
}

func TestDumpQuotesSpecialValues(t *testing.T) {
	db := NewDatabase("Q")
	s := NewSession(db)
	if _, err := s.ExecScript(`CREATE TABLE odd ("desc" VARCHAR(40), n INTEGER)`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "INSERT INTO odd VALUES ('it''s a \"test\"', NULL)")
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("Q2")
	if err := Restore(db2, &buf); err != nil {
		t.Fatalf("restore: %v", err)
	}
	s2 := NewSession(db2)
	res := mustExec(t, s2, `SELECT "desc", n FROM odd`)
	if res.Rows[0][0].S != `it's a "test"` || !res.Rows[0][1].IsNull() {
		t.Fatalf("round trip = %v", res.Rows[0])
	}
}

func TestDumpRestoreFile(t *testing.T) {
	s := mustSession(t)
	path := t.TempDir() + "/snap.sql"
	if err := s.db.DumpToFile(path); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("F")
	if err := RestoreFromFile(db2, path); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(db2)
	res := mustExec(t, s2, "SELECT COUNT(*) FROM urldb")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

// TestDumpToFileFailureKeepsOldDump: -save is the whole persistence story,
// so a dump that fails half-way — the writer errors — leaves the previous
// file byte-identical and no temp file beside it; and a bare relative
// name dumps into the working directory.
func TestDumpToFileFailureKeepsOldDump(t *testing.T) {
	s := mustSession(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.sql")
	if err := s.db.DumpToFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil || len(old) == 0 {
		t.Fatalf("first dump: %d bytes, %v", len(old), err)
	}
	mustExec(t, s, "DELETE FROM urldb")
	diskFull := errors.New("disk full")
	err = writeFileAtomic(path, func(w io.Writer) error {
		var buf bytes.Buffer
		if err := s.db.Dump(&buf); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()[:buf.Len()/2]); err != nil {
			return err
		}
		return diskFull
	})
	if !errors.Is(err, diskFull) {
		t.Fatalf("a dump whose writer fails returned %v", err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Errorf("the failed dump changed the previous file (%v)", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".dump-*")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := s.db.DumpToFile("bare.sql"); err != nil {
		t.Fatalf("bare relative name: %v", err)
	}
	db2 := NewDatabase("BARE")
	if err := RestoreFromFile(db2, filepath.Join(dir, "bare.sql")); err != nil {
		t.Fatal(err)
	}
	if res := mustExec(t, NewSession(db2), "SELECT COUNT(*) FROM urldb"); res.Rows[0][0].I != 0 {
		t.Errorf("restored %v urldb rows, want the emptied table", res.Rows[0][0])
	}
}

// TestDumpRestorePropertyLarge round-trips a generated dataset.
func TestDumpRestorePropertyLarge(t *testing.T) {
	db := NewDatabase("BIG")
	s := NewSession(db)
	if _, err := s.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, a DOUBLE, b VARCHAR(50), c BOOLEAN)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := s.Exec("INSERT INTO t VALUES (?, ?, ?, ?)",
			NewInt(int64(i)), NewFloat(float64(i)*1.5),
			NewString(strings.Repeat("x'y\"z", i%5)), NewBool(i%3 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("BIG2")
	if err := Restore(db2, &buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(db2)
	a := mustExec(t, s, "SELECT id, a, b, c FROM t ORDER BY id")
	b := mustExec(t, s2, "SELECT id, a, b, c FROM t ORDER BY id")
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if identityKey(a.Rows[i]) != identityKey(b.Rows[i]) {
			t.Fatalf("row %d: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
}
