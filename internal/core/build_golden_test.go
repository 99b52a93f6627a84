package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ihtl/internal/sched"
)

// TestEngineFileV2BytesPinned pins the v2 engine file of fixed graphs,
// byte for byte (re-recorded when the adjacency streams became packed
// rows, stream format 1; the topology they decode to did not move).
// The graphs come out of graph.Build and the blocks out of Build, so
// the pin covers the whole chain: sorted-and-deduplicated adjacency is
// a canonical form, and any way of producing it must write the same
// file. Sequential and parallel builds both hash.
func TestEngineFileV2BytesPinned(t *testing.T) {
	want := map[string]string{
		"paper/default":    "626822b226a9e9dc6bdc6bb0adb4f36d5d79d86db683ea1acca87de50baf0773",
		"paper/multiblock": "cc402521059d6003687022cf6f6373ab1fee9a22ea018ce54cb1fbe2f0f1305d",
		"rmat/default":     "d7dad5e6ce607897a33468833fedc79117be40ff8869bb972108558159ebdfb2",
		"rmat/multiblock":  "8077072b2eac36ff7bcaa0bd1fb7a87e7208fe8c578ca94dccda328ea738c130",
		"web/default":      "1847f638b8c6f8be5772a693a3d52b2803330cdae596c6a316e7d814517282aa",
		"web/multiblock":   "bb825444547e50d6268c4cdc3bd6f281fca953ec60d5c2e704464608f4906923",
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
