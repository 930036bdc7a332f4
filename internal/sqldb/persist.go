package sqldb

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Dump writes the entire database as a portable SQL script — CREATE
// TABLE, batched INSERTs, and CREATE INDEX statements — that Restore (or
// any session's ExecScript) replays. Tables dump in name order and rows
// in heap order, so dumps of identical databases are byte-identical.
// This is the persistence story for gatewayd restarts; the paper's
// deployments delegated durability to the external DBMS.
func (db *Database) Dump(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// One snapshot for the whole dump: committed data only, registered
	// so vacuum can't reclaim versions between tables. Commits that land
	// mid-dump are invisible to it, keeping the script transactionally
	// consistent.
	snap := db.mvcc.AcquireSnapshot()
	defer db.mvcc.ReleaseSnapshot(snap)
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sortStrings(names)
	for _, name := range names {
		t := db.tables[strings.ToLower(name)]
		if err := dumpTable(bw, t, snap); err != nil {
			return err
		}
	}
	// Secondary indexes last (primary-key indexes are re-created by
	// CREATE TABLE itself).
	ixNames := make([]string, 0, len(db.indexes))
	for _, ix := range db.indexes {
		ixNames = append(ixNames, ix.Name)
	}
	sortStrings(ixNames)
	for _, name := range ixNames {
		ix := db.indexes[strings.ToLower(name)]
		if strings.EqualFold(ix.Name, strings.ToLower(ix.Table)+"_pkey") {
			continue
		}
		unique := ""
		if ix.Unique {
			unique = "UNIQUE "
		}
		fmt.Fprintf(bw, "CREATE %sINDEX %s ON %s (%s);\n",
			unique, quoteIdent(ix.Name), quoteIdent(ix.Table), quoteIdent(ix.Column))
	}
	return bw.Flush()
}

func dumpTable(w io.Writer, t *Table, snap uint64) error {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(quoteIdent(t.Name))
	sb.WriteString(" (\n")
	for i, c := range t.Columns {
		if i > 0 {
			sb.WriteString(",\n")
		}
		sb.WriteString("  ")
		sb.WriteString(quoteIdent(c.Name))
		sb.WriteByte(' ')
		sb.WriteString(c.Type.String())
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		} else if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
		if c.HasDefault {
			sb.WriteString(" DEFAULT ")
			sb.WriteString(c.Default.SQLLiteral())
		}
	}
	sb.WriteString("\n);\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	// Resolve the snapshot's visible rows under the table latch, then
	// render latch-free (committed value slices are immutable).
	t.mu.RLock()
	visible := make([][]Value, 0, len(t.rows))
	for _, r := range t.rows {
		if v := r.visibleVersion(nil, snap); v != nil {
			visible = append(visible, v.vals)
		}
	}
	t.mu.RUnlock()
	// Batched inserts keep dump files compact and restores fast.
	const batch = 100
	for start := 0; start < len(visible); start += batch {
		end := start + batch
		if end > len(visible) {
			end = len(visible)
		}
		var ins strings.Builder
		ins.WriteString("INSERT INTO ")
		ins.WriteString(quoteIdent(t.Name))
		ins.WriteString(" VALUES\n")
		for i, vals := range visible[start:end] {
			if i > 0 {
				ins.WriteString(",\n")
			}
			ins.WriteString("  (")
			for j, v := range vals {
				if j > 0 {
					ins.WriteString(", ")
				}
				ins.WriteString(v.SQLLiteral())
			}
			ins.WriteByte(')')
		}
		ins.WriteString(";\n")
		if _, err := io.WriteString(w, ins.String()); err != nil {
			return err
		}
	}
	return nil
}

// quoteIdent quotes an identifier when it is not a plain lower-risk word
// (or collides with a keyword).
func quoteIdent(name string) string {
	plain := name != ""
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			plain = false
			break
		}
	}
	if _, kw := keyword(name); plain && !kw {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

// Restore replays a SQL script (typically a Dump) into the database.
func Restore(db *Database, r io.Reader) error {
	src, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	s := NewSession(db)
	defer s.Close()
	_, err = s.ExecScript(string(src))
	return err
}

// DumpToFile writes a dump atomically and durably: a reader of path sees
// the old dump or the whole new one, also after a crash.
func (db *Database) DumpToFile(path string) error {
	return writeFileAtomic(path, db.Dump)
}

// writeFileAtomic has write fill a temp file in path's directory, syncs it,
// renames it over path and syncs the directory, so that the rename cannot
// reach the disk ahead of the bytes it names. An error before the rename
// leaves path as it was; the temp file is removed either way.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".dump-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// RestoreFromFile loads a dump file into the database.
func RestoreFromFile(db *Database, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Restore(db, f)
}
