package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/tlb"
)

// TestValidateNewAndParseAgree: Config.Validate, New and ParseConfigs
// reject exactly the same configurations, and a config that validates
// also builds — New no longer builds anything to find out.
func TestValidateNewAndParseAgree(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"skylake", func(*Config) {}, true},
		{"255-way L3", func(c *Config) { c.Caches.L3 = &cache.Config{SizeBytes: 255 * 64 * 512, Ways: 255, LineBytes: 64} }, true},
		{"256-way L3", func(c *Config) { c.Caches.L3 = &cache.Config{SizeBytes: 8 << 20, Ways: 256, LineBytes: 64} }, false},
		{"512-entry fully-associative DTLB", func(c *Config) { c.TLBs.DTLB = tlb.Config{Entries: 512, Ways: 512} }, false},
		{"256-entry fully-associative L2 TLB", func(c *Config) { c.TLBs.L2 = &tlb.Config{Entries: 256, Ways: 256} }, false},
		{"no L3, no L2 TLB", func(c *Config) { c.Caches.L3, c.TLBs.L2 = nil, nil }, true},
		{"L1D size not divisible", func(c *Config) { c.Caches.L1D.SizeBytes = 1000 }, false},
		{"L1I line not a power of two", func(c *Config) { c.Caches.L1I.LineBytes = 48 }, false},
		{"L2 set count not a power of two", func(c *Config) { c.Caches.L2 = cache.Config{SizeBytes: 3 * 64 * 4, Ways: 4, LineBytes: 64} }, false},
		{"ITLB set count not a power of two", func(c *Config) { c.TLBs.ITLB = tlb.Config{Entries: 96, Ways: 8} }, false},
		{"empty L2 TLB", func(c *Config) { c.TLBs.L2 = &tlb.Config{} }, false},
		{"predictor table too large", func(c *Config) { c.Predictor.TableBits = 30 }, false},
		{"history longer than table", func(c *Config) { c.Predictor.HistoryBits = 20 }, false},
		{"empty name", func(c *Config) { c.Name = "" }, false},
		{"zero issue width", func(c *Config) { c.IssueWidth = 0 }, false},
		{"zero frequency", func(c *Config) { c.FreqGHz = 0 }, false},
		{"zero MLP", func(c *Config) { c.Penalties.MLP = 0 }, false},
		{"invalid power model", func(c *Config) { c.Power.CoreStatic = -1 }, false},
		{"invalid power model without RAPL", func(c *Config) { c.HasRAPL = false; c.Power.CoreStatic = -1 }, true},
	}
	for _, tc := range cases {
		cfg := SkylakeConfig()
		tc.mutate(&cfg)

		validErr := cfg.Validate()
		_, newErr := New(cfg)
		data, err := json.Marshal([]Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		_, parseErr := ParseConfigs(bytes.NewReader(data))
		for _, got := range []struct {
			what string
			err  error
		}{{"Validate", validErr}, {"New", newErr}, {"ParseConfigs", parseErr}} {
			if (got.err == nil) != tc.ok {
				t.Errorf("%s: %s error = %v, want ok=%v", tc.name, got.what, got.err, tc.ok)
			}
		}
		// Whatever validates must build.
		if validErr == nil {
			if _, err := (&Machine{cfg: cfg}).newLeafState(); err != nil {
				t.Errorf("%s: validated config fails to build: %v", tc.name, err)
			}
		}
	}
}
