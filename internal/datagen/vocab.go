package datagen

import (
	"fmt"
	"strings"
)

// Syllable pools for pronounceable synthetic proper nouns. Names built
// from shared syllables overlap in character n-grams, which matters for
// the embedding substitution: orthographically related entities embed
// near each other, as with corpus-trained vectors over real gazetteers.
var (
	onsets  = []string{"bla", "rad", "bol", "man", "sal", "ox", "pre", "straw", "whit", "har", "mor", "ash", "elm", "oak", "thorn", "wel", "bur", "kil", "dun", "pen", "carl", "ches", "lan", "staf", "not", "der", "lei", "war", "glou", "shef"}
	middles = []string{"ck", "cli", "ton", "ring", "der", "ber", "ley", "wor", "ces", "bridge", "ches", "field", "ham", "bury", "ford", "mount", "lake", "wood", "dale", "firth"}
	codas   = []string{"ton", "ham", "ford", "field", "ley", "wick", "worth", "by", "thorpe", "mouth", "pool", "chester", "caster", "don", "side", "gate", "stead", "well", "burn", "combe"}
)

// properNoun builds a deterministic pseudo-place/surname.
func properNoun(r *rng) string {
	s := pick(r, onsets)
	if r.float64() < 0.55 {
		s += pick(r, middles)
	}
	s += pick(r, codas)
	return strings.ToUpper(s[:1]) + s[1:]
}

// cityPool returns n distinct synthetic city names.
func cityPool(r *rng, n int) []string {
	seen := make(map[string]struct{}, n)
	var out []string
	for len(out) < n {
		c := properNoun(r)
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	return out
}

var streetTypes = []string{"Street", "Road", "Avenue", "Lane", "Drive", "Close", "Court", "Crescent", "Terrace", "Grove", "Way", "Walk"}

// streetName builds "<Noun> <Type>".
func streetName(r *rng) string {
	return properNoun(r) + " " + pick(r, streetTypes)
}

// address builds "<num> <street>".
func address(r *rng) string {
	return fmt.Sprintf("%d %s", r.rangeInt(1, 250), streetName(r))
}

// postcode builds a UK-format outward+inward code.
func postcode(r *rng) string {
	letters := "ABCDEFGHJKLMNPRSTUVWXY"
	l := func() byte { return letters[r.intn(len(letters))] }
	d := func() byte { return byte('0' + r.intn(10)) }
	if r.float64() < 0.5 {
		return fmt.Sprintf("%c%c %c%c%c", l(), d(), d(), l(), l())
	}
	return fmt.Sprintf("%c%c%c %c%c%c", l(), l(), d(), d(), l(), l())
}

var orgSuffixes = map[string][]string{
	"health":    {"Surgery", "Medical Centre", "Practice", "Clinic", "Health Centre", "GP Practice"},
	"school":    {"Primary School", "Academy", "High School", "College", "Infant School"},
	"business":  {"Ltd", "Trading Ltd", "Group", "Services", "Holdings", "& Sons"},
	"transport": {"Station", "Interchange", "Bus Station", "Halt", "Parkway"},
}

// orgName builds "<Noun> <suffix>" for an organisation category.
func orgName(r *rng, category string) string {
	suffixes, ok := orgSuffixes[category]
	if !ok {
		suffixes = orgSuffixes["business"]
	}
	name := properNoun(r)
	if r.float64() < 0.3 {
		name += " " + properNoun(r)
	}
	return name + " " + pick(r, suffixes)
}

var (
	firstNames = []string{"Alice", "Brian", "Clara", "David", "Elena", "Frank", "Grace", "Henry", "Irene", "James", "Karen", "Liam", "Mary", "Noah", "Olive", "Peter", "Quinn", "Rosa", "Samuel", "Tessa", "Umar", "Violet", "Walter", "Yasmin"}
	surnames   = []string{"Ashworth", "Bancroft", "Caldwell", "Dunmore", "Ellerby", "Fairburn", "Garfield", "Hartley", "Ingram", "Jephson", "Kendrick", "Lockwood", "Merton", "Norcliffe", "Ogden", "Pemberton", "Quickfall", "Redfern", "Stanhope", "Thackeray", "Underhill", "Vickers", "Whitmore", "Yardley"}
)

// personName builds "First Last" (sometimes with a title).
func personName(r *rng) string {
	name := pick(r, firstNames) + " " + pick(r, surnames)
	if r.float64() < 0.15 {
		name = pick(r, []string{"Dr", "Mr", "Mrs", "Ms", "Prof"}) + " " + name
	}
	return name
}

// dateISO builds "YYYY-MM-DD".
func dateISO(r *rng) string {
	return fmt.Sprintf("%04d-%02d-%02d", r.rangeInt(1995, 2025), r.rangeInt(1, 12), r.rangeInt(1, 28))
}

// dateUK builds "DD/MM/YYYY" — a different format for the same domain,
// exercising the F evidence.
func dateUK(r *rng) string {
	return fmt.Sprintf("%02d/%02d/%04d", r.rangeInt(1, 28), r.rangeInt(1, 12), r.rangeInt(1995, 2025))
}

// openingHours builds "HH:MM-HH:MM".
func openingHours(r *rng) string {
	open := r.rangeInt(6, 10)
	close := r.rangeInt(16, 22)
	halves := []string{"00", "30"}
	return fmt.Sprintf("%02d:%s-%02d:%s", open, pick(r, halves), close, pick(r, halves))
}

// phone builds a UK-style phone number.
func phone(r *rng) string {
	return fmt.Sprintf("0%d%d%d %d%d%d %d%d%d%d",
		r.intn(10), r.intn(10), r.intn(10),
		r.intn(10), r.intn(10), r.intn(10),
		r.intn(10), r.intn(10), r.intn(10), r.intn(10))
}

// email derives an address from a name.
func email(r *rng, name string) string {
	cleaned := strings.ToLower(strings.ReplaceAll(name, " ", "."))
	cleaned = strings.ReplaceAll(cleaned, "'", "")
	domains := []string{"example.org", "mail.test", "agency.gov.test", "company.test"}
	return cleaned + "@" + pick(r, domains)
}

// refCode builds identifier-shaped codes like "AB1234".
func refCode(r *rng) string {
	letters := "ABCDEFGHJKLMNPRSTUVWXYZ"
	return fmt.Sprintf("%c%c%04d", letters[r.intn(len(letters))], letters[r.intn(len(letters))], r.intn(10000))
}

// vehicleReg builds "AB12 CDE".
func vehicleReg(r *rng) string {
	letters := "ABCDEFGHJKLMNPRSTUVWXYZ"
	l := func() byte { return letters[r.intn(len(letters))] }
	return fmt.Sprintf("%c%c%d%d %c%c%c", l(), l(), r.intn(10), r.intn(10), l(), l(), l())
}

var crimeTypes = []string{"Burglary", "Vehicle crime", "Anti-social behaviour", "Criminal damage", "Shoplifting", "Public order", "Drugs", "Robbery", "Bicycle theft", "Theft from the person"}
var sectors = []string{"Retail", "Manufacturing", "Construction", "Education", "Healthcare", "Hospitality", "Logistics", "Finance", "Agriculture", "Technology"}

// numeric formats a float under a domain-specific rendering.
func numeric(r *rng, mean, std float64, style string) string {
	v := r.norm()*std + mean
	switch style {
	case "int":
		if v < 0 {
			v = -v
		}
		return fmt.Sprintf("%d", int(v))
	case "money":
		if v < 0 {
			v = -v
		}
		return fmt.Sprintf("%.2f", v)
	case "money-gbp":
		if v < 0 {
			v = -v
		}
		return fmt.Sprintf("£%.2f", v)
	case "percent":
		if v < 0 {
			v = -v
		}
		for v > 100 {
			v /= 2
		}
		return fmt.Sprintf("%.1f%%", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
