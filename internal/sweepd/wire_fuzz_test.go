package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sweep"
)

// FuzzCoordinatorWire throws arbitrary bytes at every wire endpoint —
// torn JSON, foreign labels, mismatched seeds, replayed and overlapping
// batches, trailing garbage — and checks the protocol's safety
// contract: the coordinator never panics, its accounting stays
// consistent (done + pending + leased = total), its checkpoint stays
// loadable, and a subsequent honest drain still completes the grid with
// output byte-identical to the single-host reference. The corpus
// mirrors FuzzLoadCheckpoint's classifyCheckpointLine style: each entry
// is one request body, tried against /lease, /heartbeat and /submit
// alike.
func FuzzCoordinatorWire(f *testing.F) {
	scenarios := testScenarios(2, 2)
	rec := func(i int) sweep.CheckpointRecord { return record(f, scenarios[i]) }
	marshal := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}

	// Well-formed requests for every endpoint.
	f.Add(marshal(LeaseRequest{Worker: "w", Label: testLabel}))
	f.Add(marshal(HeartbeatRequest{Worker: "w", LeaseID: "Lx-1"}))
	f.Add(marshal(SubmitRequest{Worker: "w", Label: testLabel,
		Records: []sweep.CheckpointRecord{rec(0)}}))
	// A replayed batch (same record twice) and an overlapping pair.
	f.Add(marshal(SubmitRequest{Worker: "w", Label: testLabel,
		Records: []sweep.CheckpointRecord{rec(1), rec(1)}}))
	f.Add(marshal(SubmitRequest{Worker: "w", Label: testLabel,
		Records: []sweep.CheckpointRecord{rec(0), rec(1), rec(2)}}))
	// Foreign label, unknown scenario, wrong seed.
	f.Add(marshal(SubmitRequest{Worker: "w", Label: "other config",
		Records: []sweep.CheckpointRecord{rec(0)}}))
	f.Add([]byte(`{"worker":"w","label":"` + testLabel + `","records":[{"name":"k=zz #9","seed":1,"values":{"x":1}}]}`))
	f.Add([]byte(fmt.Sprintf(`{"worker":"w","label":%q,"records":[{"name":%q,"seed":%d,"values":{"x":1}}]}`,
		testLabel, scenarios[0].Name, scenarios[0].Seed+1)))
	// A reported failure.
	f.Add(marshal(SubmitRequest{Worker: "w", Label: testLabel,
		Failed: []ScenarioFailure{{Name: scenarios[3].Name, Seed: scenarios[3].Seed, Error: "boom"}}}))
	// Torn JSON, trailing garbage, degenerate shapes.
	valid := marshal(SubmitRequest{Worker: "w", Label: testLabel, Records: []sweep.CheckpointRecord{rec(0)}})
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), []byte("{}trailing")...))
	f.Add([]byte(""))
	f.Add([]byte("null"))
	f.Add([]byte("not json at all\x00\xff"))
	f.Add([]byte(`{"worker":1e999}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		clock := newFakeClock()
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		c, _ := newTestCoordinator(t, scenarios, clock, Config{
			Batch: 2, LeaseTTL: time.Minute, CheckpointPath: path,
		})
		h := c.Handler()
		for _, endpoint := range []string{"/lease", "/heartbeat", "/submit"} {
			req := httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(data))
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code/100 == 5 {
				t.Fatalf("%s answered %d to fuzz input", endpoint, rw.Code)
			}
		}

		// Accounting stays consistent whatever the bytes did.
		st := c.State()
		if st.Done+st.Pending+st.Leased != st.Total {
			t.Fatalf("state leak: done %d + pending %d + leased %d != total %d",
				st.Done, st.Pending, st.Leased, st.Total)
		}
		// The checkpoint holds only validated records: it must load.
		if _, _, err := sweep.LoadCheckpoint(path, testLabel, scenarios); err != nil {
			t.Fatalf("checkpoint corrupted by wire input: %v", err)
		}

		// An honest worker can still finish the grid. Any lease the fuzz
		// input legitimately grabbed is reclaimed by expiry.
		for !c.Complete() {
			lease, status, err := c.Lease(LeaseRequest{Worker: "honest", Label: testLabel})
			if err != nil || status != http.StatusOK {
				t.Fatalf("honest lease: status %d err %v", status, err)
			}
			if lease.Done {
				break
			}
			if lease.Wait {
				clock.Advance(2 * time.Minute)
				continue
			}
			submitLease(t, c, "honest", lease)
		}

		// When the fuzz input injected nothing (the usual case — noise is
		// rejected), the honest drain must match the single-host
		// reference byte for byte. A mutated-but-identity-valid record is
		// accepted with whatever payload it carries — the same trust
		// model as checkpoint records, where values are the worker's to
		// report once name and seed validate — so those runs only assert
		// completion, not byte identity.
		if st.Done == 0 && len(c.Failed()) == 0 {
			if got, want := foldRender(t, c, scenarios), referenceRender(t, scenarios); !bytes.Equal(got, want) {
				t.Error("post-fuzz drain differs from single-host reference")
			}
		}
	})
}
