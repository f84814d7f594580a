package ldap

import (
	"fmt"
	"sort"
	"strings"
)

// ObjectClass describes a named entry type: the attributes an entry tagged
// with the class must and may carry. Section 8 of the paper observes that a
// Grid information service should support typing without forcing it; the
// Schema type therefore validates only entries whose classes it knows and,
// in lenient mode, passes unknown classes through untouched.
type ObjectClass struct {
	Name string
	// Super names a parent class whose must/may sets are inherited.
	Super string
	Must  []string
	May   []string
}

// Schema is a registry of object classes. The zero value is empty and
// lenient; use NewGridSchema for the classes used throughout MDS-2.
type Schema struct {
	classes map[string]*ObjectClass
	// Strict rejects entries carrying object classes the schema does not
	// define; the default (lenient) accepts them, per §8.
	Strict bool
}

// NewSchema returns an empty, lenient schema.
func NewSchema() *Schema { return &Schema{classes: map[string]*ObjectClass{}} }

// Define registers an object class, replacing any prior definition.
func (s *Schema) Define(oc ObjectClass) {
	if s.classes == nil {
		s.classes = map[string]*ObjectClass{}
	}
	cp := oc
	s.classes[strings.ToLower(oc.Name)] = &cp
}

// Lookup returns the definition of the named class, if known.
func (s *Schema) Lookup(name string) (*ObjectClass, bool) {
	oc, ok := s.classes[strings.ToLower(name)]
	return oc, ok
}

// Classes returns the defined class names, sorted.
func (s *Schema) Classes() []string {
	out := make([]string, 0, len(s.classes))
	for _, oc := range s.classes {
		out = append(out, oc.Name)
	}
	sort.Strings(out)
	return out
}

// requirements accumulates the transitive must/may sets for a class chain.
func (s *Schema) requirements(name string, must, may map[string]bool) error {
	seen := map[string]bool{}
	for name != "" {
		key := strings.ToLower(name)
		if seen[key] {
			return fmt.Errorf("ldap: object class inheritance cycle at %q", name)
		}
		seen[key] = true
		oc, ok := s.classes[key]
		if !ok {
			if s.Strict {
				return fmt.Errorf("ldap: unknown object class %q", name)
			}
			return nil
		}
		for _, a := range oc.Must {
			must[strings.ToLower(a)] = true
		}
		for _, a := range oc.May {
			may[strings.ToLower(a)] = true
		}
		name = oc.Super
	}
	return nil
}

// Validate checks an entry against the schema: it must carry at least one
// object class; every known class's mandatory attributes must be present;
// and every attribute must be allowed by some class (unless an unknown
// class is present in lenient mode, which disables the closed-world check).
func (s *Schema) Validate(e *Entry) error {
	classes := e.ObjectClasses()
	if len(classes) == 0 {
		return fmt.Errorf("ldap: entry %q has no objectclass", e.DN)
	}
	must := map[string]bool{}
	may := map[string]bool{"objectclass": true}
	openWorld := false
	for _, c := range classes {
		if _, ok := s.Lookup(c); !ok {
			if s.Strict {
				return fmt.Errorf("ldap: entry %q: unknown object class %q", e.DN, c)
			}
			openWorld = true
			continue
		}
		if err := s.requirements(c, must, may); err != nil {
			return err
		}
	}
	for a := range must {
		if !e.Has(a) {
			return fmt.Errorf("ldap: entry %q missing mandatory attribute %q", e.DN, a)
		}
	}
	if openWorld {
		return nil
	}
	for _, attr := range e.Attributes() {
		key := strings.ToLower(attr.Name)
		if !must[key] && !may[key] {
			return fmt.Errorf("ldap: entry %q: attribute %q not allowed by classes %v", e.DN, attr.Name, classes)
		}
	}
	return nil
}

// NewGridSchema returns the object classes used by the MDS-2 reproduction,
// covering the Figure 3 examples (computer, service/queue, perf/loadaverage,
// storage/filesystem) plus the network-link and registration classes the
// GRIS/GIIS implementations publish.
func NewGridSchema() *Schema {
	s := NewSchema()
	s.Define(ObjectClass{Name: "top", May: []string{"description", "ttl", "timestamp"}})
	s.Define(ObjectClass{
		Name: "computer", Super: "top",
		Must: []string{"hn"},
		May: []string{"system", "osversion", "cputype", "cpucount", "freecpus",
			"memorymb", "vo", "contact"},
	})
	s.Define(ObjectClass{
		Name: "service", Super: "top",
		Must: []string{"url"},
		May:  []string{"servicetype", "hn"},
	})
	s.Define(ObjectClass{
		Name: "queue", Super: "service",
		Must: []string{"queue"},
		May:  []string{"dispatchtype", "maxjobs", "runningjobs", "queuedjobs"},
	})
	s.Define(ObjectClass{
		Name: "perf", Super: "top",
		Must: []string{"perf"},
		May:  []string{"period", "hn"},
	})
	s.Define(ObjectClass{
		Name: "loadaverage", Super: "perf",
		May: []string{"load1", "load5", "load15", "freecpus"},
	})
	s.Define(ObjectClass{
		Name: "storage", Super: "top",
		Must: []string{"store"},
		May:  []string{"hn"},
	})
	s.Define(ObjectClass{
		Name: "filesystem", Super: "storage",
		Must: []string{"path"},
		May:  []string{"free", "total", "mounted"},
	})
	s.Define(ObjectClass{
		Name: "networklink", Super: "top",
		Must: []string{"src", "dst"},
		May: []string{"bandwidthmbps", "latencyms", "predictedbandwidthmbps",
			"predictedlatencyms", "forecaster", "measuredat"},
	})
	s.Define(ObjectClass{
		Name: "replica", Super: "top",
		Must: []string{"lfn", "url"},
		May:  []string{"sizebytes", "store", "hn"},
	})
	s.Define(ObjectClass{
		Name: "mdsservice", Super: "service",
		May: []string{"mdstype", "vo", "provider", "suffix", "providersuffix"},
	})
	s.Define(ObjectClass{
		Name: "organization", Super: "top",
		Must: []string{"o"},
	})
	s.Define(ObjectClass{
		Name: "application", Super: "top",
		Must: []string{"app"},
		May:  []string{"status", "hn", "progress", "accuracy", "algorithm"},
	})
	return s
}
