package workload

import (
	"testing"

	"dscs/internal/units"
)

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("suite has %d benchmarks, want 8 (Table 1)", len(suite))
	}
	seen := map[string]bool{}
	for _, b := range suite {
		if b.Name == "" || b.Slug == "" || b.Description == "" {
			t.Errorf("%q: incomplete metadata", b.Slug)
		}
		if seen[b.Slug] {
			t.Errorf("duplicate slug %q", b.Slug)
		}
		seen[b.Slug] = true
		if b.Model == nil || b.Preproc == nil {
			t.Fatalf("%q: missing graphs", b.Slug)
		}
		if err := b.Model.Validate(); err != nil {
			t.Errorf("%q model: %v", b.Slug, err)
		}
		if err := b.Preproc.Validate(); err != nil {
			t.Errorf("%q preproc: %v", b.Slug, err)
		}
		if b.InputBytes <= 0 || b.IntermediateBytes <= 0 || b.OutputBytes <= 0 {
			t.Errorf("%q: non-positive payload sizes", b.Slug)
		}
	}
}

func TestBySlug(t *testing.T) {
	if b := BySlug("ppe-detection"); b == nil || b.Name != "PPE Detection" {
		t.Errorf("BySlug(ppe-detection) = %+v", b)
	}
	if BySlug("nope") != nil {
		t.Error("unknown slug should return nil")
	}
}

func TestRequestsWithinLambdaCap(t *testing.T) {
	// The paper bounds requests by the AWS payload cap (~20MB).
	for _, b := range Suite() {
		if b.InputBytes > 20*units.MB {
			t.Errorf("%q input %v exceeds the 20MB request cap", b.Slug, b.InputBytes)
		}
	}
}

func TestDataMovementProfiles(t *testing.T) {
	// PPE moves the most data (the paper's highest-gain benchmark);
	// the chatbot the least.
	ppe := BySlug("ppe-detection")
	chat := BySlug("chatbot")
	credit := BySlug("credit-risk")
	for _, b := range Suite() {
		total := b.InputBytes + b.IntermediateBytes
		if total > ppe.InputBytes+ppe.IntermediateBytes {
			t.Errorf("%q moves more data than PPE", b.Slug)
		}
	}
	if chat.InputBytes > 100*units.KB {
		t.Error("chatbot input should be tiny")
	}
	// Credit risk: near-zero compute (the paper's lowest-speedup case).
	if credit.Model.FLOPs() > 10e6 {
		t.Errorf("credit-risk FLOPs = %d, want ~1M", credit.Model.FLOPs())
	}
}

func TestIntermediateMatchesModelInput(t *testing.T) {
	// For the vision benchmarks, the intermediate tensor is the model's
	// input image in fp32.
	for _, slug := range []string{"asset-damage", "clinical", "moderation", "remote-sensing"} {
		b := BySlug(slug)
		want := b.Model.InputShape.Elems() * 4
		if int64(b.IntermediateBytes) != want {
			t.Errorf("%q intermediate = %v, want %v (model input fp32)",
				slug, b.IntermediateBytes, units.Bytes(want))
		}
	}
}

func TestPreprocScalesWithPayload(t *testing.T) {
	// Preprocessing work tracks the raw payload: PPE's is the largest.
	ppe := BySlug("ppe-detection").Preproc.FLOPs()
	chat := BySlug("chatbot").Preproc.FLOPs()
	if ppe < 100*chat {
		t.Errorf("PPE preproc (%d) should dwarf chatbot preproc (%d)", ppe, chat)
	}
}

// TestBySlugSharesOneBuild pins the build-once suite: BySlug hands out the
// instances Suite holds and builds nothing, so it allocates nothing.
func TestBySlugSharesOneBuild(t *testing.T) {
	for _, b := range Suite() {
		if BySlug(b.Slug) != b {
			t.Errorf("BySlug(%q) is not the Suite instance", b.Slug)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { BySlug("remote-sensing") }); allocs != 0 {
		t.Errorf("BySlug allocates %.1f objects per call, want 0", allocs)
	}
}
