package table

import (
	"fmt"

	"d3l/internal/persist"
)

// EncodeMeta serialises the lake's metadata — table names, column
// names and types, and per-slot liveness — into a snapshot buffer.
// Raw extents are deliberately not written: an indexed engine answers
// every query from its attribute profiles, so a serving replica only
// needs the lake's shape (stable ids, names for results and Remove,
// arities for alignment reporting). Tombstoned slots (Remove leaves a
// name-only stub outside the name index) are recorded as such, keeping
// snapshot size independent of Add/Remove churn. Counts and lengths are
// varints.
func (l *Lake) EncodeMeta(b *persist.Buffer) {
	b.Uvarint(uint64(len(l.tables)))
	for id, t := range l.tables {
		live := l.live(id)
		b.Bool(live)
		b.VStr(t.Name)
		if !live {
			continue
		}
		b.Uvarint(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			b.VStr(c.Name)
			b.U8(uint8(c.Type))
		}
	}
}

// DecodeLakeMeta reconstructs a lake written by EncodeMeta: live slots
// become extent-free tables registered in the name index, tombstoned
// slots become the same name-only stubs Remove leaves behind. Ids are
// positional, so every table keeps the id it had at encode time.
func DecodeLakeMeta(r *persist.Reader) (*Lake, error) {
	// A count past the int range comes out negative, which the checks
	// below refuse.
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Each encoded table slot is at least a liveness byte plus a name
	// count (2 bytes), and each column a name count and a type byte;
	// bounding by that floor keeps a crafted count from amplifying into a
	// huge up-front allocation.
	if n < 0 || n > r.Remaining()/2 {
		return nil, fmt.Errorf("%w: lake declares %d tables in %d bytes", persist.ErrCorrupt, n, r.Remaining())
	}
	l := NewLake()
	l.tables = make([]*Table, 0, n)
	for id := 0; id < n; id++ {
		live := r.Bool()
		name := r.VStr()
		// Decoded tables carry schema metadata only; the flag lets
		// Engine.Update know content diffing against them is impossible.
		t := &Table{Name: name, metaOnly: true}
		if live {
			cols := int(r.Uvarint())
			if err := r.Err(); err != nil {
				return nil, err
			}
			if cols < 0 || cols > r.Remaining()/2 {
				return nil, fmt.Errorf("%w: table %q declares %d columns in %d bytes", persist.ErrCorrupt, name, cols, r.Remaining())
			}
			t.Columns = make([]*Column, cols)
			for c := 0; c < cols; c++ {
				colName := r.VStr()
				typ := Type(r.U8())
				if typ != Text && typ != Numeric {
					return nil, fmt.Errorf("%w: table %q column %q has type %d", persist.ErrCorrupt, name, colName, typ)
				}
				t.Columns[c] = &Column{Name: colName, Type: typ}
			}
			if _, dup := l.byName[name]; dup {
				return nil, fmt.Errorf("%w: duplicate live table name %q", persist.ErrCorrupt, name)
			}
			l.byName[name] = id
		}
		l.tables = append(l.tables, t)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return l, nil
}
