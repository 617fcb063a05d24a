package table

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"d3l/internal/par"
)

// ReadCSV parses a table from CSV. The first record is the header. The
// table name is supplied by the caller (usually the file stem).
func ReadCSV(r io.Reader, name string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // open data is ragged; pad/truncate below
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table %q: reading header: %w", name, err)
	}
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table %q: reading rows: %w", name, err)
		}
		if len(rec) > len(header) {
			rec = rec[:len(header)]
		}
		rows = append(rows, rec)
	}
	return New(name, header, rows)
}

// ReadCSVFile loads a table from a CSV file, naming it after the file
// stem.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return ReadCSV(f, name)
}

// WriteCSV writes the table as CSV with a header record.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	n := t.Rows()
	row := make([]string, t.Arity())
	for r := 0; r < n; r++ {
		for c, col := range t.Columns {
			row[c] = col.Values[r]
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to a file.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadLakeDir loads every *.csv file under dir (non-recursive) into a
// lake, in stable lexicographic order so ids are reproducible. Files are
// parsed on GOMAXPROCS workers and enter the lake afterwards, in name
// order, so the ids and the error reported — the first failing file by
// name — are those of a one-at-a-time load.
func LoadLakeDir(dir string) (*Lake, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	tables := make([]*Table, len(names))
	// A failing file leaves its slot nil and every slot before it filled.
	loadErr := par.For(context.Background(), len(names), 0, nil, func(_ struct{}, i int) error {
		t, err := ReadCSVFile(filepath.Join(dir, names[i]))
		if err != nil {
			return fmt.Errorf("loading %s: %w", names[i], err)
		}
		tables[i] = t
		return nil
	})
	lake := NewLake()
	for _, t := range tables {
		if t == nil {
			return nil, loadErr
		}
		if _, err := lake.Add(t); err != nil {
			return nil, err
		}
	}
	return lake, nil
}

// SaveLakeDir writes every live table of the lake as dir/<name>.csv.
// Detached slots — the name-only stubs Lake.Remove leaves so ids stay
// stable — are skipped: a stub has no header, so writing it would
// produce a CSV that LoadLakeDir rejects ("reading header: EOF") and
// would resurrect a removed name on the next load.
func SaveLakeDir(l *Lake, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for id, t := range l.Tables() {
		if !l.live(id) {
			continue
		}
		if err := t.WriteCSVFile(filepath.Join(dir, t.Name+".csv")); err != nil {
			return err
		}
	}
	return nil
}
