package core

import "d3l/internal/lsh"

// attr is the engine's record of one attribute: what Algorithm 1 made
// of it, held by ids. Its MinHash signatures are ids into the engine's
// signature table (sigtable.go), so each distinct signature is held once
// and referenced once per field; its embedding signature is its slot of
// the engine's flat embeds array (embedWords words under the attribute
// id). A Profile is the form a reader asks for (Engine.Profile), and the
// one a query target is profiled into; the engine keeps none.
type attr struct {
	name                 string
	extent               []float64 // Profile.NumExtent, sorted ascending
	table, column, tSize int32
	q, t, r              int32 // the ids of QSig, TSig and RSig; 0 is none
	flags                attrFlags
}

// attrFlags are a record's Profile booleans, plus whether its embeds
// slot holds an ESig (every profiled attribute's, never a stub's).
type attrFlags uint8

const (
	attrNumeric attrFlags = 1 << iota
	attrSubject
	attrEZero
	attrEmbedded
)

func (a *attr) is(f attrFlags) bool { return a.flags&f != 0 }

// flagIf is f when on, else no flag.
func flagIf(on bool, f attrFlags) attrFlags {
	if on {
		return f
	}
	return 0
}

// embedWords is the length of an ESig: one embeds slot.
func (e *Engine) embedWords() int { return e.opts.EmbedBits / 64 }

// esig is attribute id's ESig, its embeds slot, or nil when the record
// holds none. Caller holds e.mu.
func (e *Engine) esig(id int) lsh.BitSignature {
	if !e.attrs[id].is(attrEmbedded) {
		return nil
	}
	w := e.embedWords()
	return e.embeds[id*w : (id+1)*w : (id+1)*w]
}

// push appends p's record under the next attribute id, taking a
// reference to each of its signatures, and its ESig to embeds (a zeroed
// slot when it has none). Caller holds e.mu in write mode or owns the
// engine.
func (e *Engine) push(p *Profile) {
	e.attrs = append(e.attrs, attr{
		name: p.Name, extent: p.NumExtent,
		table: int32(p.Ref.TableID), column: int32(p.Ref.Column), tSize: int32(p.TSize),
		q: e.sigs.intern(p.QSig), t: e.sigs.intern(p.TSig), r: e.sigs.intern(p.RSig),
		flags: flagIf(p.Numeric, attrNumeric) | flagIf(p.Subject, attrSubject) |
			flagIf(p.EZero, attrEZero) | flagIf(len(p.ESig) > 0, attrEmbedded),
	})
	n := len(e.embeds)
	e.embeds = append(e.embeds, make([]uint64, e.embedWords())...)
	copy(e.embeds[n:], p.ESig)
}

// profileOf assembles attribute id's Profile from its record. Nothing is
// copied: the signatures are the table's shared copies and ESig is the
// embeds slot. Caller holds e.mu.
func (e *Engine) profileOf(id int) Profile {
	a := &e.attrs[id]
	return Profile{
		Ref:  AttrRef{TableID: int(a.table), Column: int(a.column)},
		Name: a.name, Numeric: a.is(attrNumeric), Subject: a.is(attrSubject), EZero: a.is(attrEZero),
		QSig: e.sigs.sig(a.q), TSig: e.sigs.sig(a.t), TSize: int(a.tSize), RSig: e.sigs.sig(a.r),
		ESig: e.esig(id), NumExtent: a.extent,
	}
}

// stub reduces attribute id to the metadata a dead attribute keeps: it
// gives its signature references back to the table and keeps no
// signature, embedding or extent, so Add/Remove churn does not
// accumulate dead payloads. Its forest keys are gone (or never existed),
// so it can never surface as a candidate, and the join builders skip
// dead tables. Caller holds e.mu in write mode.
func (e *Engine) stub(id int) {
	a := &e.attrs[id]
	for _, sid := range [3]int32{a.q, a.t, a.r} {
		e.sigs.release(sid)
	}
	clear(e.esig(id))
	*a = attr{name: a.name, table: a.table, column: a.column, flags: a.flags&(attrNumeric|attrSubject) | attrEZero}
}
