package scenario

import (
	"testing"

	"ccnuma/internal/config"
)

// TestShardsOutsideFingerprint pins that SimShards is a host knob, not
// experiment identity: two specs differing only in shard count share a
// fingerprint and a canonical encoding, so memo caches, artifact replay,
// and the experiment service treat sharded and serial runs of the same
// experiment as the same cell.
func TestShardsOutsideFingerprint(t *testing.T) {
	a := Default()
	b := Default()
	b.Machine.SimShards = 4
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("fingerprint changed with SimShards: %s vs %s", fa, fb)
	}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Error("canonical encoding changed with SimShards")
	}
}

// TestShardsFlagApplies pins the -shards flag mapping and the validation
// fences around it: shard counts are bounded by the node count and the
// mesh topology cannot shard.
func TestShardsFlagApplies(t *testing.T) {
	def := Default()
	fs := knobFlags(def, "shards")
	if err := fs.Parse([]string{"-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	s, err := FromFlags(fs, def, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine.SimShards != 4 {
		t.Fatalf("SimShards = %d, want 4", s.Machine.SimShards)
	}

	cfg := config.Base()
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimShards = 5
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted more shards than nodes")
	}
	cfg.SimShards = -1
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a negative shard count")
	}
	cfg.SimShards = 2
	cfg.Topology = config.TopoMesh2D
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a sharded mesh topology")
	}
	cfg.Topology = config.TopoCrossbar
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected a legal sharded crossbar: %v", err)
	}
}
