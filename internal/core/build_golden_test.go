package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ihtl/internal/sched"
)

// TestEngineFileV2BytesPinned pins the v2 engine file of fixed graphs,
// byte for byte, to the hashes recorded before preprocessing became
// sort-free. The graphs come out of graph.Build and the blocks out of
// Build, so the pin covers the whole chain: sorted-and-deduplicated
// adjacency is a canonical form, and any way of producing it must
// write the same file. Sequential and parallel builds both hash.
func TestEngineFileV2BytesPinned(t *testing.T) {
	want := map[string]string{
		"paper/default":    "0a3b7b90921776d0d50c2c133c8b350182b98337c6c762ce5530a7b82b6c4c35",
		"paper/multiblock": "edba874618784d7297bf121d85591853ed1a8a0f9dac0bc808d9cf2809f9ec62",
		"rmat/default":     "5acba04e5b4430f6d52dbe428102349317bc5e0d218a531cf6087487a56e0e7a",
		"rmat/multiblock":  "dcf755263189f676fe8cbdf04c94486db29e349978b1fb57d2033ce62e1d9379",
		"web/default":      "1530df99b340f7044fe2afceeebbf7592ef0f2ac7a270451a8e6043e7530a29c",
		"web/multiblock":   "e817f6587d48cbe651ebd10d6fef214e700b8506073807798a13b5b5106670ec",
	}
	variants := map[string]Params{
		"default":    {HubsPerBlock: 256},
		"multiblock": {HubsPerBlock: 16, FVThreshold: 0.05, MaxBlocks: 32},
	}
	for gname, g := range buildTestGraphs(t) {
		for vname, p := range variants {
			name := gname + "/" + vname
			for _, pool := range []*sched.Pool{nil, testPool} {
				ih, err := BuildWith(g, p, pool)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var buf bytes.Buffer
				if _, err := ih.WriteToV2(&buf); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("%s: v2 engine file sha256 = %s, want %s", name, got, want[name])
				}
			}
		}
	}
}
