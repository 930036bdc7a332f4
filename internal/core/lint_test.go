package core

import (
	"reflect"
	"testing"
)

func TestParseTemplateBasic(t *testing.T) {
	refs, unterminated, _ := compileTemplate(`a $(X) b $(@sq:Y) c`).Refs()
	if len(unterminated) != 0 {
		t.Fatalf("unterminated = %v", unterminated)
	}
	if len(refs) != 2 {
		t.Fatalf("refs = %+v", refs)
	}
	if refs[0].Name != "X" || refs[0].Prefix != "" || refs[0].Offset != 2 || refs[0].End != 6 {
		t.Errorf("ref 0 = %+v", refs[0])
	}
	if refs[1].Name != "Y" || refs[1].Prefix != "@sq:" || refs[1].Raw != "@sq:Y" {
		t.Errorf("ref 1 = %+v", refs[1])
	}
}

func TestParseTemplateNested(t *testing.T) {
	// The late-evaluated $(A$(B)) form: the outer reference is dynamic
	// (its effective name depends on B's value), the inner one is plain.
	refs, unterminated, _ := compileTemplate(`$(A$(B))`).Refs()
	if len(unterminated) != 0 {
		t.Fatalf("unterminated = %v", unterminated)
	}
	if len(refs) != 2 {
		t.Fatalf("refs = %+v", refs)
	}
	var outer, inner *TemplateRef
	for i := range refs {
		if refs[i].Dynamic {
			outer = &refs[i]
		} else {
			inner = &refs[i]
		}
	}
	if outer == nil || inner == nil {
		t.Fatalf("refs = %+v", refs)
	}
	if outer.Raw != "A$(B)" || outer.Name != "" || outer.Offset != 0 || outer.End != 8 {
		t.Errorf("outer = %+v", *outer)
	}
	if inner.Name != "B" || inner.Offset != 3 || inner.End != 7 {
		t.Errorf("inner = %+v", *inner)
	}
}

func TestParseTemplateDeeplyNested(t *testing.T) {
	refs, unterminated, _ := compileTemplate(`$(A$(B$(C)))`).Refs()
	if len(unterminated) != 0 {
		t.Fatalf("unterminated = %v", unterminated)
	}
	var names []string
	dynamics := 0
	for _, r := range refs {
		if r.Dynamic {
			dynamics++
		} else {
			names = append(names, r.Name)
		}
	}
	if dynamics != 2 || !reflect.DeepEqual(names, []string{"C"}) {
		t.Fatalf("dynamics = %d, names = %v, refs = %+v", dynamics, names, refs)
	}
}

func TestParseTemplateEscapes(t *testing.T) {
	refs, unterminated, _ := compileTemplate(`$$(hidden) and $(real)`).Refs()
	if len(unterminated) != 0 {
		t.Fatalf("unterminated = %v", unterminated)
	}
	if len(refs) != 1 || refs[0].Name != "real" {
		t.Fatalf("refs = %+v", refs)
	}
	// The escapes are what the scanner stepped over: an escape inside a
	// reference body counts, an unterminated one does not.
	for tpl, want := range map[string][]string{
		`$$(hidden) and $(real) $$(two)`: {"hidden", "two"},
		`$(A$$(inner)) $(B$(C$$(deep)))`: {"inner", "deep"},
		`$$(done) $$(open`:               {"done"},
		`$$(open`:                        nil,
		`$$$(x)`:                         {"x"},
	} {
		if _, _, names := compileTemplate(tpl).Refs(); !reflect.DeepEqual(names, want) {
			t.Errorf("compileTemplate(%q).Refs() escapes %v, want %v", tpl, names, want)
		}
	}
}

func TestParseTemplateUnterminated(t *testing.T) {
	cases := []struct {
		tpl  string
		want []int
	}{
		{"$(open", []int{0}},
		{"ok $(X) then $(broken", []int{13}},
		{"$$(esc", []int{0}},
		{"$(outer $(inner)", []int{0}},
	}
	for _, c := range cases {
		_, unterminated, _ := compileTemplate(c.tpl).Refs()
		if !reflect.DeepEqual(unterminated, c.want) {
			t.Errorf("%q: unterminated = %v, want %v", c.tpl, unterminated, c.want)
		}
	}
}

func TestParseTemplateDollarWithoutParen(t *testing.T) {
	refs, unterminated, _ := compileTemplate(`price $5 and $X but $(Y)`).Refs()
	if len(unterminated) != 0 || len(refs) != 1 || refs[0].Name != "Y" {
		t.Fatalf("refs = %+v, unterminated = %v", refs, unterminated)
	}
}
