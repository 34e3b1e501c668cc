package lint

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Aliasret,
		Bannedcall,
		Detorder,
		Domainflow,
		Droppederr,
		Epsbudget,
		Expunderflow,
		Floatcmp,
		Goroutinemisuse,
		Guardedfield,
		Ledgercharge,
		Maporder,
		Poolescape,
		Probrange,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
