package artifact

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attrib"
	"repro/internal/cachesim"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// observerFields attach run observers without changing the run's outcome;
// they are deliberately absent from the fingerprint so attaching telemetry
// or attribution does not split the cache. Everything else in
// machine.Config must move the fingerprint.
var observerFields = map[string]bool{
	"Telemetry":   true,
	"Attribution": true,
	"OnSample":    true,
}

// setObserver attaches a non-nil observer to the named field.
func setObserver(t *testing.T, cfg *machine.Config, name string) {
	t.Helper()
	switch name {
	case "Telemetry":
		cfg.Telemetry = telemetry.NewCollector(telemetry.Config{})
	case "Attribution":
		cfg.Attribution = attrib.NewTable()
	case "OnSample":
		cfg.OnSample = func(cycle, retired int64) {}
	default:
		t.Fatalf("observer field %q has no setter — extend setObserver", name)
	}
}

// TestConfigFingerprintCoversEveryField walks machine.Config by reflection:
// mutating any non-observer field must change the fingerprint (or make the
// config uncacheable), so a newly added field cannot silently alias cache
// entries computed under different configurations.
func TestConfigFingerprintCoversEveryField(t *testing.T) {
	base := machine.PolyFlowConfig()
	baseFP, err := ConfigFingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		cfg := base

		if observerFields[f.Name] {
			setObserver(t, &cfg, f.Name)
			fp, err := ConfigFingerprint(cfg)
			if err != nil {
				t.Errorf("observer field %s: fingerprint failed: %v", f.Name, err)
			} else if fp != baseFP {
				t.Errorf("observer field %s changed the fingerprint; observers must not split the cache", f.Name)
			}
			continue
		}

		if f.Name == "Caches" {
			cfg.Caches = cachesim.DefaultHierarchy()
			if _, err := ConfigFingerprint(cfg); !errors.Is(err, ErrUncacheable) {
				t.Errorf("custom Caches: err = %v, want ErrUncacheable", err)
			}
			continue
		}

		if f.Name == "SpawnMask" {
			// Semantic, but not a scalar: an empty mask must not move the
			// fingerprint (nil and empty are the same mask), a non-empty one
			// must.
			cfg.SpawnMask = machine.NewSpawnMask()
			fp, err := ConfigFingerprint(cfg)
			if err != nil {
				t.Fatalf("empty SpawnMask: fingerprint failed: %v", err)
			}
			if fp != baseFP {
				t.Errorf("attaching an empty SpawnMask changed the fingerprint; nil and empty masks are the same mask")
			}
			cfg.SpawnMask.Add(0x40, 0)
			fp, err = ConfigFingerprint(cfg)
			if err != nil {
				t.Fatalf("non-empty SpawnMask: fingerprint failed: %v", err)
			}
			if fp == baseFP {
				t.Errorf("a non-empty SpawnMask did not change the fingerprint — masked candidates would alias unmasked cache entries")
			}
			continue
		}

		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("Config field %s has kind %s the fingerprint test cannot mutate — "+
				"extend this test", f.Name, v.Kind())
		}
		fp, err := ConfigFingerprint(cfg)
		if err != nil {
			t.Errorf("field %s: fingerprint failed after mutation: %v", f.Name, err)
			continue
		}
		if fp == baseFP {
			t.Errorf("mutating Config.%s did not change the fingerprint — is it tagged json:\"-\"?", f.Name)
		}
	}
}

func TestKeyHashMoves(t *testing.T) {
	cfg := machine.PolyFlowConfig()
	k1, err := NewSimKey("gzip", SourceSHA("src"), 1000, "postdoms", cfg)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Key{}
	if k, err := NewSimKey("gzip", SourceSHA("src2"), 1000, "postdoms", cfg); err == nil {
		variants = append(variants, k)
	}
	if k, err := NewSimKey("gzip", SourceSHA("src"), 1001, "postdoms", cfg); err == nil {
		variants = append(variants, k)
	}
	if k, err := NewSimKey("gzip", SourceSHA("src"), 1000, "loopFT", cfg); err == nil {
		variants = append(variants, k)
	}
	cfg2 := cfg
	cfg2.MaxTasks++
	if k, err := NewSimKey("gzip", SourceSHA("src"), 1000, "postdoms", cfg2); err == nil {
		variants = append(variants, k)
	}
	cfg3 := cfg
	cfg3.SpawnMask = machine.NewSpawnMask()
	cfg3.SpawnMask.Add(0x40, 0)
	if k, err := NewSimKey("gzip", SourceSHA("src"), 1000, "postdoms", cfg3); err == nil {
		variants = append(variants, k)
	}
	cfg4 := cfg
	cfg4.SpawnMask = machine.NewSpawnMask()
	cfg4.SpawnMask.Add(0x40, 1)
	if k, err := NewSimKey("gzip", SourceSHA("src"), 1000, "postdoms", cfg4); err == nil {
		variants = append(variants, k)
	}
	if len(variants) != 6 {
		t.Fatalf("built %d variants, want 6", len(variants))
	}
	seen := map[string]bool{k1.Hash(): true}
	for i, k := range variants {
		h := k.Hash()
		if seen[h] {
			t.Fatalf("variant %d collides: %+v", i, k)
		}
		seen[h] = true
	}
	if len(k1.Hash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(k1.Hash()))
	}
}

func TestKeyRequiresSourceSHA(t *testing.T) {
	if _, err := NewSimKey("adhoc", "", 0, "postdoms", machine.PolyFlowConfig()); !errors.Is(err, ErrUncacheable) {
		t.Fatalf("empty SourceSHA: err = %v, want ErrUncacheable", err)
	}
}

func TestSimArtifactRoundTrip(t *testing.T) {
	k, err := NewSimKey("gzip", SourceSHA("s"), 10, "postdoms", machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := &SimArtifact{Key: k, Result: machine.Result{Config: "polyflow/postdoms", Cycles: 123, Retired: 456, IPC: 3.7}}
	data, err := EncodeSim(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSim(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Cycles != 123 || got.Result.IPC != 3.7 || got.Key.Hash() != k.Hash() {
		t.Fatalf("round trip mangled artifact: %+v", got)
	}
	if _, err := DecodeSim([]byte(strings.Replace(string(data), SimSchema, "bogus/9", 1))); err == nil {
		t.Fatal("decoding a wrong-schema artifact succeeded")
	}
}
