package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file holds the numeric-domain vocabulary: the //numerics:domain
// annotation the summaries (summary.go) carry bottom-up through calls and
// the domainflow and probrange analyzers check.

// Domain classifies which numeric space a floating-point value lives in.
// The analyzers care about one coarse split — log space versus linear
// space — with three refinements of linear that carry extra obligations:
// probabilities must stay in [0,1] (probrange), rates may mix into
// log-space exponent arithmetic (−qt + n·log(qt) is a legal log-space
// term even though q and t are linear rates), and ε fractions feed the
// budget discipline.
type Domain int8

const (
	// DomUnknown means the analysis could not commit to a space. Unknown
	// never participates in findings: mixing with it is silent.
	DomUnknown Domain = iota
	// DomLinear is a plain linear-space quantity.
	DomLinear
	// DomProb is a linear-space probability mass, contractually in [0,1].
	DomProb
	// DomRate is a linear-space rate or time quantity; legal inside
	// log-space exponent arithmetic.
	DomRate
	// DomEpsFrac is a linear-space fraction of an accuracy budget ε.
	DomEpsFrac
	// DomLog is a log-space quantity (the logarithm of some mass).
	DomLog
)

var domainNames = map[Domain]string{
	DomUnknown: "unknown",
	DomLinear:  "linear",
	DomProb:    "prob",
	DomRate:    "rate",
	DomEpsFrac: "epsfrac",
	DomLog:     "log",
}

func (d Domain) String() string { return domainNames[d] }

// LinearFamily reports whether d is a linear-space domain (prob, rate and
// epsfrac are refinements of linear).
func (d Domain) LinearFamily() bool {
	switch d {
	case DomLinear, DomProb, DomRate, DomEpsFrac:
		return true
	}
	return false
}

// ParseDomain resolves a //numerics:domain token.
func ParseDomain(tok string) (Domain, bool) {
	switch tok {
	case "log":
		return DomLog, true
	case "linear":
		return DomLinear, true
	case "prob":
		return DomProb, true
	case "rate":
		return DomRate, true
	case "epsfrac":
		return DomEpsFrac, true
	}
	return DomUnknown, false
}

// domainPrefix is the annotation that declares the numeric space of a
// function's values:
//
//	//numerics:domain <dom>          // the float (or float-slice) results
//	//numerics:domain <name>=<dom>   // the parameter called <name> (receiver included)
//
// with <dom> one of log, linear, prob, rate, epsfrac. Tokens combine on
// one line: //numerics:domain prob p=prob eps=epsfrac. The summary engine
// propagates result domains bottom-up through unannotated helpers, so
// only entry points and ground-truth kernels need the annotation.
const domainPrefix = "//numerics:domain"

// parseDomains extracts //numerics:domain tokens from a doc comment.
// params lists the function's parameters, receiver first; name=dom tokens
// are resolved against it. Unknown domain names and unknown parameter
// names are reported as BadTerms.
func parseDomains(doc *ast.CommentGroup, params []*types.Var) (paramDoms map[int]Domain, result Domain, bad []BadTerm, annotated bool) {
	if doc == nil {
		return nil, DomUnknown, nil, false
	}
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, domainPrefix) {
			continue
		}
		annotated = true
		rest := strings.TrimSpace(strings.TrimPrefix(c.Text, domainPrefix))
		if i := strings.Index(rest, "//"); i >= 0 {
			rest = strings.TrimSpace(rest[:i])
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			bad = append(bad, BadTerm{Pos: c.Pos(), Term: "", Reason: "missing domain (want log, linear, prob, rate or epsfrac)"})
			continue
		}
		for _, f := range fields {
			name, domTok, isParam := strings.Cut(f, "=")
			if !isParam {
				domTok = f
			}
			dom, ok := ParseDomain(domTok)
			if !ok {
				bad = append(bad, BadTerm{Pos: c.Pos(), Term: f, Reason: "unknown domain " + domTok + " (want log, linear, prob, rate or epsfrac)"})
				continue
			}
			if !isParam {
				result = dom
				continue
			}
			idx := -1
			for i, p := range params {
				if p.Name() == name {
					idx = i
					break
				}
			}
			if idx < 0 {
				bad = append(bad, BadTerm{Pos: c.Pos(), Term: f, Reason: "no parameter named " + name})
				continue
			}
			if paramDoms == nil {
				paramDoms = make(map[int]Domain)
			}
			paramDoms[idx] = dom
		}
	}
	return paramDoms, result, bad, annotated
}
