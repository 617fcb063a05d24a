// Package table provides the dataset model used across the repository:
// tables with named, typed columns; domain-independent type inference
// (string vs numeric, the only metadata the paper assumes available);
// CSV input/output; and the in-memory data-lake container the indexes
// are built over.
package table

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrDuplicateName reports an Add of a table whose name is already
// taken. Callers branch on it with errors.Is — the HTTP serving layer
// maps it to 409 — instead of inferring duplication from lake state,
// which races concurrent mutations.
var ErrDuplicateName = errors.New("lake: duplicate table name")

// ErrInvalidName reports a table name that cannot round-trip through
// the on-disk lake layout. SaveLakeDir writes dir/<name>.csv, so a
// name carrying a path separator or a dot-segment would escape the
// lake directory; Add rejects such names up front (the HTTP serving
// layer maps this to 400) instead of letting a later save scribble
// outside the lake.
var ErrInvalidName = errors.New("lake: invalid table name")

// ValidateName reports whether a table name is safe to use as the
// stem of a lake file: non-empty, not "." or "..", and free of path
// separators and NUL. Lake.Add enforces it; watch-mode and the server
// inherit the guarantee through that one boundary.
func ValidateName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("%w: empty", ErrInvalidName)
	case name == "." || name == "..":
		return fmt.Errorf("%w: %q", ErrInvalidName, name)
	case strings.ContainsAny(name, "/\\\x00"):
		return fmt.Errorf("%w: %q contains a path separator or NUL", ErrInvalidName, name)
	}
	return nil
}

// Type is the domain-independent type of a column. The paper assumes at
// most attribute names and such types are known (Section I).
type Type int

const (
	// Text marks columns treated through the N, V, F, E evidence types.
	Text Type = iota
	// Numeric marks columns treated through N, F and the D (KS) evidence.
	Numeric
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Text:
		return "text"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// numericThreshold is the fraction of non-null values that must parse
// as numbers for a column to be inferred Numeric.
const numericThreshold = 0.8

// Column is a named attribute with its extent.
type Column struct {
	Name   string
	Values []string
	Type   Type

	numeric []float64 // cached parse of numeric extents
}

// NewColumn builds a column and infers its type from the extent.
func NewColumn(name string, values []string) *Column {
	c := &Column{Name: name, Values: values}
	c.inferType()
	return c
}

// inferType classifies the column and caches the parsed numeric extent.
func (c *Column) inferType() {
	nonNull := 0
	parsed := make([]float64, 0, len(c.Values))
	for _, v := range c.Values {
		v = strings.TrimSpace(v)
		if v == "" || v == "-" || strings.EqualFold(v, "null") || strings.EqualFold(v, "n/a") || strings.EqualFold(v, "na") {
			continue
		}
		nonNull++
		if f, err := parseNumber(v); err == nil {
			parsed = append(parsed, f)
		}
	}
	if nonNull > 0 && float64(len(parsed)) >= numericThreshold*float64(nonNull) {
		c.Type = Numeric
		c.numeric = parsed
	} else {
		c.Type = Text
		c.numeric = nil
	}
}

// errNotNumber is what parseNumber answers for a cell that cannot start
// a number: shared, because the caller only asks whether there was one.
var errNotNumber = errors.New("table: not a number")

// startsNumber reports whether s begins the way a string
// strconv.ParseFloat accepts can: a sign, a digit, a point, or the i/n
// of inf/nan in either case (hex floats and underscored forms start
// with a digit). False means ParseFloat would refuse s.
func startsNumber(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; c {
	case '+', '-', '.', 'i', 'I', 'n', 'N':
		return true
	default:
		return '0' <= c && c <= '9'
	}
}

// parseNumber accepts plain and thousand-separated decimals, optional
// leading currency signs and trailing percent signs (open-data lakes are
// full of them). Most cells of a lake are text, and ParseFloat's refusal
// allocates a *NumError holding a copy of the cell, so a cell that
// cannot start a number is refused before it gets there.
func parseNumber(s string) (float64, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "£")
	s = strings.TrimPrefix(s, "$")
	s = strings.TrimPrefix(s, "€")
	s = strings.TrimSuffix(s, "%")
	s = strings.ReplaceAll(s, ",", "")
	if !startsNumber(s) {
		return 0, errNotNumber
	}
	return strconv.ParseFloat(s, 64)
}

// NumericExtent returns the parsed numeric values of a Numeric column
// (nil for Text columns).
func (c *Column) NumericExtent() []float64 { return c.numeric }

// NonNull returns the non-null string values of the extent.
func (c *Column) NonNull() []string {
	out := make([]string, 0, len(c.Values))
	for _, v := range c.Values {
		if t := strings.TrimSpace(v); t != "" && t != "-" && !strings.EqualFold(t, "null") {
			out = append(out, t)
		}
	}
	return out
}

// NullFraction reports the fraction of null/blank values.
func (c *Column) NullFraction() float64 {
	if len(c.Values) == 0 {
		return 1
	}
	return 1 - float64(len(c.NonNull()))/float64(len(c.Values))
}

// DistinctFraction reports distinct non-null values over non-null count.
func (c *Column) DistinctFraction() float64 {
	nn := c.NonNull()
	if len(nn) == 0 {
		return 0
	}
	set := make(map[string]struct{}, len(nn))
	for _, v := range nn {
		set[v] = struct{}{}
	}
	return float64(len(set)) / float64(len(nn))
}

// DataBytes reports the raw payload size of the extent plus name, used
// for the Table II space-overhead denominators.
func (c *Column) DataBytes() int64 {
	total := int64(len(c.Name))
	for _, v := range c.Values {
		total += int64(len(v)) + 1
	}
	return total
}

// Table is a named dataset.
type Table struct {
	Name    string
	Columns []*Column

	// metaOnly marks a table reconstructed from snapshot metadata: its
	// columns carry names and types but no extents. Content diffing
	// against such a table is impossible, so Engine.Update falls back
	// to a full re-profile when the stored side is metadata-only.
	metaOnly bool
}

// MetaOnly reports whether this table carries schema metadata only
// (names and types, no extents) — true for tables of a snapshot-loaded
// lake, false for tables built from data.
func (t *Table) MetaOnly() bool { return t.metaOnly }

// New assembles a table from column names and row-major values. Short
// rows are padded with empty strings; long rows are an error.
// Duplicate column names are disambiguated with numeric suffixes (the
// second "name" becomes "name_2") so lookups by column name — Project,
// joins, explain — are never silently ambiguous.
func New(name string, columnNames []string, rows [][]string) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("table: empty table name")
	}
	if len(columnNames) == 0 {
		return nil, fmt.Errorf("table %q: no columns", name)
	}
	cols := make([][]string, len(columnNames))
	for i := range cols {
		cols[i] = make([]string, len(rows))
	}
	for r, row := range rows {
		if len(row) > len(columnNames) {
			return nil, fmt.Errorf("table %q: row %d has %d cells, schema has %d", name, r, len(row), len(columnNames))
		}
		for cIdx, cell := range row {
			cols[cIdx][r] = cell
		}
	}
	t := &Table{Name: name, Columns: make([]*Column, len(columnNames))}
	// Reserve every header name up front so disambiguation never
	// steals a name a later column carries explicitly: in
	// "name,name,name_2" the duplicate becomes name_3, not name_2.
	used := make(map[string]struct{}, len(columnNames))
	first := make(map[string]int, len(columnNames))
	for i, cn := range columnNames {
		used[cn] = struct{}{}
		if _, seen := first[cn]; !seen {
			first[cn] = i
		}
	}
	for i, cn := range columnNames {
		if first[cn] != i {
			cn = uniqueColumnName(cn, used)
		}
		t.Columns[i] = NewColumn(cn, cols[i])
	}
	return t, nil
}

// uniqueColumnName returns the first free name_2, name_3, … candidate
// for a duplicated header name (counting on until even the suffixed
// form is free, in case the header itself contains "name_2"). The
// chosen name is recorded in used.
func uniqueColumnName(name string, used map[string]struct{}) string {
	for n := 2; ; n++ {
		candidate := fmt.Sprintf("%s_%d", name, n)
		if _, taken := used[candidate]; !taken {
			used[candidate] = struct{}{}
			return candidate
		}
	}
}

// Arity reports the number of columns.
func (t *Table) Arity() int { return len(t.Columns) }

// Rows reports the number of rows.
func (t *Table) Rows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return len(t.Columns[0].Values)
}

// Column returns the column with the given name, or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ColumnNames returns the schema in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// NumericColumnFraction reports the share of Numeric columns (Fig. 2c).
func (t *Table) NumericColumnFraction() float64 {
	if len(t.Columns) == 0 {
		return 0
	}
	n := 0
	for _, c := range t.Columns {
		if c.Type == Numeric {
			n++
		}
	}
	return float64(n) / float64(len(t.Columns))
}

// DataBytes reports the payload size of the whole table.
func (t *Table) DataBytes() int64 {
	var total int64
	for _, c := range t.Columns {
		total += c.DataBytes()
	}
	return total
}

// Project returns a new table with the named columns, in the given
// order. Unknown names are an error.
func (t *Table) Project(name string, columnNames ...string) (*Table, error) {
	out := &Table{Name: name}
	for _, cn := range columnNames {
		c := t.Column(cn)
		if c == nil {
			return nil, fmt.Errorf("table %q: no column %q", t.Name, cn)
		}
		out.Columns = append(out.Columns, NewColumn(c.Name, append([]string(nil), c.Values...)))
	}
	if len(out.Columns) == 0 {
		return nil, fmt.Errorf("table %q: projection selects no columns", t.Name)
	}
	return out, nil
}

// SelectRows returns a new table keeping the rows at the given indices.
func (t *Table) SelectRows(name string, rowIdx []int) (*Table, error) {
	out := &Table{Name: name, Columns: make([]*Column, len(t.Columns))}
	n := t.Rows()
	for _, r := range rowIdx {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("table %q: row index %d out of range [0,%d)", t.Name, r, n)
		}
	}
	for i, c := range t.Columns {
		vals := make([]string, len(rowIdx))
		for j, r := range rowIdx {
			vals[j] = c.Values[r]
		}
		out.Columns[i] = NewColumn(c.Name, vals)
	}
	return out, nil
}

// Lake is an in-memory collection of tables with stable integer ids.
type Lake struct {
	tables []*Table
	byName map[string]int
}

// NewLake returns an empty lake.
func NewLake() *Lake {
	return &Lake{byName: make(map[string]int)}
}

// Add appends a table and returns its id. Duplicate names are an error:
// table names identify datasets in ground truths and join graphs.
// Names that cannot round-trip through the on-disk layout (path
// separators, dot-segments) are rejected with ErrInvalidName.
func (l *Lake) Add(t *Table) (int, error) {
	if err := ValidateName(t.Name); err != nil {
		return 0, err
	}
	if _, dup := l.byName[t.Name]; dup {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateName, t.Name)
	}
	id := len(l.tables)
	l.tables = append(l.tables, t)
	l.byName[t.Name] = id
	return id, nil
}

// Replace swaps the table stored under an existing live name for t,
// keeping the id (and every other slot) intact — the lake half of an
// in-place engine Update. It reports the reused id and whether the
// name was live; a detached or unknown name reports false and changes
// nothing.
func (l *Lake) Replace(t *Table) (int, bool) {
	id, ok := l.byName[t.Name]
	if !ok {
		return 0, false
	}
	l.tables[id] = t
	return id, true
}

// live reports whether slot id holds an attached table: its name still
// resolves back to this slot. Remove frees the name (a later Add of
// the same name claims a new slot), so a detached slot's name either
// misses the index or points elsewhere.
func (l *Lake) live(id int) bool {
	got, ok := l.byName[l.tables[id].Name]
	return ok && got == id
}

// Remove detaches the named table: the name becomes free for reuse by
// a later Add, while the id slot is retained so outstanding ids stay
// valid and other ids never shift. The slot is reduced to a name-only
// stub — the column payload is released, so serve-while-mutating
// workloads don't accumulate dead extents. It reports the freed id
// and whether the name was present. Len keeps counting detached
// slots; engines track liveness.
func (l *Lake) Remove(name string) (int, bool) {
	id, ok := l.byName[name]
	if !ok {
		return 0, false
	}
	delete(l.byName, name)
	l.tables[id] = &Table{Name: name}
	return id, true
}

// Reserve appends a detached name-only slot and returns its id,
// without claiming the name in the index — the slot is born in the
// state Remove leaves behind. Shard engines use it to mirror a table
// added on a peer shard: the id advances in lockstep with the owning
// shard's Add, but the name stays free here, so lookups and a later
// real Add of the same name behave as if the table never existed
// locally.
func (l *Lake) Reserve(name string) int {
	id := len(l.tables)
	l.tables = append(l.tables, &Table{Name: name})
	return id
}

// Len reports the number of tables.
func (l *Lake) Len() int { return len(l.tables) }

// Table returns the table with the given id.
func (l *Lake) Table(id int) *Table { return l.tables[id] }

// Tables returns the backing slice (do not mutate).
func (l *Lake) Tables() []*Table { return l.tables }

// IDByName returns the id of a named table.
func (l *Lake) IDByName(name string) (int, bool) {
	id, ok := l.byName[name]
	return id, ok
}

// ByName returns a named table, or nil.
func (l *Lake) ByName(name string) *Table {
	if id, ok := l.byName[name]; ok {
		return l.tables[id]
	}
	return nil
}

// DataBytes reports the total payload size of the lake. Detached
// slots (name-only stubs left by Remove) hold no payload and are
// skipped.
func (l *Lake) DataBytes() int64 {
	var total int64
	for id, t := range l.tables {
		if !l.live(id) {
			continue
		}
		total += t.DataBytes()
	}
	return total
}
