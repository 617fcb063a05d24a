package tokenize

import (
	"unicode"
	"unicode/utf8"
)

// Separator classes of a lower-cased character.
const (
	inWord  = iota // part of a word
	wordSep        // ends a word (isWordSeparator)
	partSep        // ends a word and its part (isPartSeparator)
)

// sepClass classifies a lower-cased rune.
func sepClass(r rune) uint8 {
	switch {
	case isPartSeparator(r):
		return partSep
	case isWordSeparator(r):
		return wordSep
	}
	return inWord
}

// asciiLower and asciiSep are, per ASCII byte, the byte strings.ToLower
// maps it to and the separator class of that byte.
var asciiLower, asciiSep = func() (lower, sep [utf8.RuneSelf]uint8) {
	for c := range lower {
		l := unicode.ToLower(rune(c))
		lower[c], sep[c] = uint8(l), sepClass(l)
	}
	return lower, sep
}()

// Per-id flags of an Extent's vocabulary.
const (
	numericWord uint8 = 1 << iota // every byte a digit
	inTset                        // nominated for the tset
	inEmbed                       // nominated for embedding
)

// Extent is the Section III-A decomposition of one attribute extent, as
// Algorithm 1 reads it: each value is lower-cased and split into parts
// and words in one scan, each word is interned to an id, and the token
// histogram (lines 5-8) is a count per id. Signals then applies the
// per-part refinement of Example 2 to the parts it recorded.
//
// An Extent is scratch for profiling one column after another: Reset
// starts the next column and keeps every buffer, so a pass over many
// columns allocates little beyond each column's distinct words. The
// zero value is ready to use.
type Extent struct {
	ids    map[string]int32 // word -> id, ids dense from 0 in first-seen order
	vocab  []string         // id -> word
	counts []int32          // id -> occurrences in the extent
	flags  []uint8          // id -> numericWord | inTset | inEmbed
	total  int              // occurrences of all words

	word  []byte  // the lowered bytes of the word being scanned
	words []int32 // the ids of every part's words, part after part
	ends  []int32 // where each part that has a word ends in words

	tset, embed []string // Signals' results
}

// Reset empties the extent for the next column, and drops every word
// of the last one it held, Signals' results included.
func (e *Extent) Reset() {
	if e.ids == nil {
		e.ids = make(map[string]int32)
	}
	clear(e.ids)
	clear(e.vocab) // drop the previous column's words
	clear(e.tset)
	clear(e.embed)
	e.vocab, e.counts, e.flags = e.vocab[:0], e.counts[:0], e.flags[:0]
	e.words, e.ends = e.words[:0], e.ends[:0]
	e.total = 0
}

// Add folds one value into the extent. The value is lower-cased exactly
// as strings.ToLower would (an invalid byte becomes U+FFFD) while it is
// split: parts at isPartSeparator, words at either separator, both
// judged on the lowered character. Only ASCII bytes take the table;
// runes are decoded at bytes ≥ 0x80 alone.
func (e *Extent) Add(value string) {
	part := len(e.words)
	from := 0 // where the word being scanned starts in value
	for i := 0; i < len(value); {
		c, at := value[i], i
		var class uint8
		if c < utf8.RuneSelf {
			i++
			if class = asciiSep[c]; class == inWord {
				e.word = append(e.word, asciiLower[c])
				continue
			}
		} else {
			r, n := utf8.DecodeRuneInString(value[i:])
			i += n
			r = unicode.ToLower(r)
			if class = sepClass(r); class == inWord {
				e.word = utf8.AppendRune(e.word, r)
				continue
			}
		}
		e.endWord(value[from:at])
		from = i
		if class == partSep {
			e.endPart(part)
			part = len(e.words)
		}
	}
	e.endWord(value[from:])
	e.endPart(part)
}

// endWord interns and counts the word being scanned, if any; raw is the
// word as the value spells it. A new word already lower-case in the
// value is held as that substring, the others as a copy of the scan.
func (e *Extent) endWord(raw string) {
	if len(e.word) == 0 {
		return
	}
	id, ok := e.ids[string(e.word)]
	if !ok {
		id = int32(len(e.vocab))
		w := raw
		if w != string(e.word) {
			w = string(e.word)
		}
		e.ids[w] = id
		e.vocab = append(e.vocab, w)
		e.counts = append(e.counts, 0)
		var f uint8
		if isNumericWord(e.word) {
			f = numericWord
		}
		e.flags = append(e.flags, f)
	}
	e.counts[id]++
	e.total++
	e.words = append(e.words, id)
	e.word = e.word[:0]
}

// endPart records the part whose words start at words[start], unless
// it has none.
func (e *Extent) endPart(start int) {
	if len(e.words) > start {
		e.ends = append(e.ends, int32(len(e.words)))
	}
}

// isNumericWord reports a word made entirely of digits.
func isNumericWord(w []byte) bool {
	for _, c := range w {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// Signals applies the per-part refinement of Example 2 to every part of
// the extent: a part's rarest word (fewest occurrences in the extent)
// joins the tset, and its most common word is nominated for embedding
// when it is frequent (more occurrences than the mean, as in
// Histogram.Infrequent's cut). Count ties break to the lexicographically
// smaller word. Pure-numeric words carry weak token-level signal
// (Section III-C), so a part's rare word is numeric only when the part
// has nothing else (Example 2 picks 'portland' and '3be', not the house
// number).
//
// Each word appears once in a result, in the order of its first
// nomination. Both slices are the extent's and valid until its next
// Reset; the caller may reorder them.
func (e *Extent) Signals() (tset, embed []string) {
	e.tset, e.embed = e.tset[:0], e.embed[:0]
	cut := frequencyCut(e.total, len(e.vocab))
	counts, vocab, flags := e.counts, e.vocab, e.flags
	start := int32(0)
	for _, end := range e.ends {
		words := e.words[start:end]
		start = end
		hasNonNum := false
		for _, id := range words {
			if flags[id]&numericWord == 0 {
				hasNonNum = true
				break
			}
		}
		rare := int32(-1)
		for _, id := range words {
			if hasNonNum && flags[id]&numericWord != 0 {
				continue
			}
			if rare < 0 || counts[id] < counts[rare] || (counts[id] == counts[rare] && vocab[id] < vocab[rare]) {
				rare = id
			}
		}
		common := words[0]
		for _, id := range words[1:] {
			if counts[id] > counts[common] || (counts[id] == counts[common] && vocab[id] < vocab[common]) {
				common = id
			}
		}
		if flags[rare]&inTset == 0 {
			flags[rare] |= inTset
			e.tset = append(e.tset, vocab[rare])
		}
		if flags[common]&inEmbed == 0 && float64(counts[common]) > cut {
			flags[common] |= inEmbed
			e.embed = append(e.embed, vocab[common])
		}
	}
	for id := range flags {
		flags[id] &^= inTset | inEmbed
	}
	return e.tset, e.embed
}
