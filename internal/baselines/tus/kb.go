package tus

import (
	"strings"
	"sync"
	"unicode"
)

// syntheticKB is the YAGO stand-in (DESIGN.md §4.3): a token-to-class
// map covering the domain vocabulary of the generated lakes plus
// structural classes for pattern-shaped tokens (years, postcodes,
// codes). Like YAGO entity matching, a lookup canonicalises the token
// and probes several morphological variants, so mapping every token of
// every value dominates TUS indexing time the way Experiment 4
// describes.
type syntheticKB struct {
	classes map[string][]string
}

var (
	builtinOnce sync.Once
	builtin     *syntheticKB
)

// BuiltinKB returns the shared synthetic knowledge base.
func BuiltinKB() KnowledgeBase {
	builtinOnce.Do(func() {
		builtin = newSyntheticKB()
	})
	return builtin
}

func newSyntheticKB() *syntheticKB {
	groups := map[string][]string{
		"wordnet_medical_center": {"gp", "doctor", "practice", "surgery", "clinic", "physician", "medical", "health", "hospital", "nhs", "care", "trust"},
		"wordnet_road":           {"street", "st", "road", "rd", "avenue", "ave", "lane", "drive", "way", "close", "court", "crescent", "terrace", "grove", "walk", "hill"},
		"wordnet_city":           {"city", "town", "borough", "village", "district", "manchester", "london", "salford", "bolton", "leeds", "sheffield", "belfast", "bristol", "york", "bath"},
		"wordnet_region":         {"county", "region", "province", "area", "shire"},
		"wordnet_school":         {"school", "college", "academy", "university", "campus"},
		"wordnet_company":        {"company", "business", "firm", "ltd", "plc", "enterprise", "agency"},
		"wordnet_money":          {"payment", "funding", "cost", "price", "amount", "fee", "budget", "salary", "grant"},
		"wordnet_person":         {"mr", "mrs", "ms", "dr", "prof", "name", "surname"},
		"wordnet_time":           {"hours", "opening", "closing", "monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday", "january", "february", "march", "april", "june", "july", "august", "september", "october", "november", "december"},
		"wordnet_transport":      {"station", "stop", "route", "line", "bus", "rail", "train"},
		"wordnet_crime":          {"crime", "offence", "incident", "police", "theft", "burglary"},
		"wordnet_property":       {"property", "housing", "house", "dwelling", "building", "land", "flat"},
		"wordnet_bird":           {"kestrel", "owl", "goshawk", "sparrowhawk", "merlin", "hobby", "falcon", "hawk"},
	}
	kb := &syntheticKB{classes: make(map[string][]string)}
	for class, words := range groups {
		for _, w := range words {
			kb.classes[w] = append(kb.classes[w], class)
		}
	}
	return kb
}

// Classes canonicalises the token and probes the KB with the token, a
// de-pluralised variant and a stemmed variant, then falls back to
// structural classes.
func (kb *syntheticKB) Classes(token string) []string {
	t := canonical(token)
	if t == "" {
		return nil
	}
	if cl, ok := kb.classes[t]; ok {
		return cl
	}
	// Morphological probes, as entity linkers do.
	if strings.HasSuffix(t, "s") {
		if cl, ok := kb.classes[strings.TrimSuffix(t, "s")]; ok {
			return cl
		}
	}
	if strings.HasSuffix(t, "es") {
		if cl, ok := kb.classes[strings.TrimSuffix(t, "es")]; ok {
			return cl
		}
	}
	if strings.HasSuffix(t, "ies") {
		if cl, ok := kb.classes[strings.TrimSuffix(t, "ies")+"y"]; ok {
			return cl
		}
	}
	return structuralClasses(t)
}

// structuralClasses assigns pattern-shaped tokens to broad classes, the
// way YAGO types cover literals.
func structuralClasses(t string) []string {
	digits, letters := 0, 0
	for _, r := range t {
		switch {
		case unicode.IsDigit(r):
			digits++
		case unicode.IsLetter(r):
			letters++
		}
	}
	switch {
	case digits > 0 && letters == 0:
		if len(t) == 4 && (strings.HasPrefix(t, "19") || strings.HasPrefix(t, "20")) {
			return []string{"wordnet_year"}
		}
		return []string{"wordnet_number"}
	case digits > 0 && letters > 0:
		return []string{"wordnet_code"}
	default:
		return nil
	}
}

func canonical(token string) string {
	return strings.ToLower(strings.TrimFunc(token, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}))
}
