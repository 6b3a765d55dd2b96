package report

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"manualhijack/internal/core"
	"manualhijack/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	Table(&b, "title", []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	out := b.String()
	if !strings.Contains(out, "title") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Header and separator aligned to the widest cell.
	if !strings.Contains(lines[2], "-----------") {
		t.Fatalf("separator wrong: %q", lines[2])
	}
	if !strings.HasPrefix(lines[4], "  longer-cell") {
		t.Fatalf("row wrong: %q", lines[4])
	}
}

func TestBars(t *testing.T) {
	var b strings.Builder
	Bars(&b, "shares", []stats.Entry{
		{Key: "CN", Share: 0.5, Count: 50},
		{Key: "MY", Share: 0.3, Count: 30},
		{Key: "ZA", Share: 0.2, Count: 20},
	}, 2)
	out := b.String()
	if !strings.Contains(out, "CN") || !strings.Contains(out, "50.00%") {
		t.Fatalf("bars output: %q", out)
	}
	if strings.Contains(out, "ZA") {
		t.Fatal("maxRows not respected")
	}
	if strings.Count(out, "#") < 25 {
		t.Fatalf("bar for 50%% too short: %q", out)
	}
}

func TestSeries(t *testing.T) {
	var b strings.Builder
	Series(&b, "s", []int{0, 1, 5, 10})
	out := b.String()
	if !strings.Contains(out, "peak=10") || !strings.Contains(out, "buckets=4") {
		t.Fatalf("series: %q", out)
	}
	b.Reset()
	Series(&b, "empty", nil)
	if !strings.Contains(b.String(), "(empty)") {
		t.Fatal("empty series not handled")
	}
}

func TestCompareTable(t *testing.T) {
	var b strings.Builder
	CompareTable(&b, "cmp", []Compare{
		{Artifact: "F7", Metric: "within 30 min", Paper: "20%", Measured: "18.9%", Note: "n=42"},
	})
	out := b.String()
	for _, want := range []string{"F7", "within 30 min", "20%", "18.9%", "n=42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.2094) != "20.9%" {
		t.Fatal(Pct(0.2094))
	}
	if Pct2(0.8091) != "80.91%" {
		t.Fatal(Pct2(0.8091))
	}
	if F(3.14159) != "3.14" {
		t.Fatal(F(3.14159))
	}
}

func TestUnicodeWidths(t *testing.T) {
	var b strings.Builder
	Table(&b, "", []string{"term"}, [][]string{{"账单"}, {"wire"}})
	if !strings.Contains(b.String(), "账单") {
		t.Fatal("unicode cell lost")
	}
}

func TestRenderStudyZeroValue(t *testing.T) {
	// A zero-value report (no data at all) must render without panicking —
	// robustness for partial or failed studies.
	var b strings.Builder
	RenderStudy(&b, &core.StudyReport{})
	if !strings.Contains(b.String(), "reproduction report") {
		t.Fatal("header missing")
	}
}

// TestStudyReportDigest pins the report `hijackstudy -scale 0.05 -seed 5`
// prints above its timing footer. A change that moves the report on
// purpose updates the digest and says why.
func TestStudyReportDigest(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on linux/amd64; elsewhere the compiler may fuse float multiply-adds, which moves the simulation")
	}
	sc := core.DefaultStudyConfig(5)
	sc.Scale = 0.05
	h := sha256.New()
	RenderStudy(h, core.RunStudy(sc))
	const want = "20f9c9aeb61907ce5c04faf8bb7608b63448528f7bb6db5c41dfc2e05802726e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("report: sha256 %s, want %s", got, want)
	}
}
