package simcache

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// FuzzSimCacheDisk writes arbitrary bytes as a key's entry file and looks
// the key up in a fresh cache over that directory. Get must never panic.
// It must miss, or hit only on a current-version envelope of that key,
// returning a measurement that store writes under the key and load reads
// back unchanged: a damaged file costs a re-run and never yields a
// measurement no run could have recorded. The entry exactly as store
// wrote it must replay the stored measurement. The seeds are that entry,
// the entry truncated, an empty file, and envelopes with the wrong
// version and the wrong key.
func FuzzSimCacheDisk(f *testing.F) {
	cfg := testConfig()
	cfg.SampleInterval = 8 * units.Microsecond // a short Series in the envelope
	m, err := sim.New(cfg, "scan", scanFactory{})
	if err != nil {
		f.Fatal(err)
	}
	want, err := m.Run(context.Background(), 20_000, 100_000)
	if err != nil {
		f.Fatal(err)
	}
	key := Key(cfg, "scan", 20_000, 100_000)
	c, err := New(8, f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := c.Put(key, want); err != nil {
		f.Fatal(err)
	}
	stored, err := os.ReadFile(c.disk.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stored)
	f.Add(stored[:len(stored)/2])
	f.Add([]byte{})
	for _, bad := range []func(*diskEntry){
		func(e *diskEntry) { e.Version++ },
		func(e *diskEntry) { e.Key += "0" },
	} {
		var ent diskEntry
		if err := json.Unmarshal(stored, &ent); err != nil {
			f.Fatal(err)
		}
		bad(&ent)
		data, err := json.Marshal(ent)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	// Fuzz calls run one at a time in each process, so they share one
	// directory and overwrite the entry file.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(8, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		if !ok {
			if bytes.Equal(data, stored) {
				t.Fatal("the entry store wrote is a miss")
			}
			return
		}
		var ent diskEntry
		if err := json.Unmarshal(data, &ent); err != nil || ent.Version != diskVersion || ent.Key != key {
			t.Fatalf("a hit from a file that is no version-%d entry of this key", diskVersion)
		}
		if bytes.Equal(data, stored) && !reflect.DeepEqual(got, want) {
			t.Fatal("the entry store wrote replayed a different measurement")
		}
		if err := c.disk.store(key, got); err != nil {
			t.Fatalf("a hit that store cannot write: %v", err)
		}
		again, ok := c.disk.load(key)
		if !ok || !reflect.DeepEqual(again, got) {
			t.Fatalf("a hit that does not survive store and load:\n got %+v\nback %+v", got, again)
		}
	})
}
