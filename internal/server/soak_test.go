package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"comparenb/internal/testutil"
)

// TestServerSoakConcurrentTenants is the concurrency gate for the
// serving path, meant to run under -race: several tenants fire bursts of
// jobs at one daemon, all jobs share the one cube cache, and afterwards
//
//   - every job's notebook is byte-identical to its one-shot reference
//     (same seed ⇒ same bytes, no matter which tenants ran concurrently
//     or what order the shared cache was filled in),
//   - the shared cache's counters moved monotonically,
//   - shutting the server down leaves zero goroutines behind.
func TestServerSoakConcurrentTenants(t *testing.T) {
	before := runtime.NumGoroutine()
	csvPath := writeTinyCSV(t, 1, 400)

	s, base, shutdown := startTestServer(t, Options{MaxConcurrent: 4, QueueDepth: 256})
	loadRelation(t, base, "tiny", csvPath)

	const tenants, jobsPer = 4, 5

	// One-shot reference bytes per seed, computed against a private cache.
	refs := make(map[int64][]byte, jobsPer)
	for k := 0; k < jobsPer; k++ {
		seed := int64(100 + k)
		nb, _, _ := oneShot(t, csvPath, soakRequest(seed))
		refs[seed] = nb
	}

	statsBefore := s.cache.Stats()
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		for k := 0; k < jobsPer; k++ {
			wg.Add(1)
			go func(tn, k int) {
				defer wg.Done()
				seed := int64(100 + k)
				tenant := fmt.Sprintf("tenant-%d", tn)
				if err := soakOneJob(base, tenant, seed, refs[seed]); err != nil {
					t.Errorf("tenant %s seed %d: %v", tenant, seed, err)
				}
			}(tn, k)
		}
	}
	wg.Wait()

	statsAfter := s.cache.Stats()
	if statsAfter.Hits < statsBefore.Hits || statsAfter.RollupHits < statsBefore.RollupHits ||
		statsAfter.Misses < statsBefore.Misses || statsAfter.Evictions < statsBefore.Evictions {
		t.Errorf("shared cache counters moved backwards: before %+v, after %+v", statsBefore, statsAfter)
	}
	if statsAfter.Hits == statsBefore.Hits {
		t.Errorf("soak of %d identical-shape jobs produced no shared-cache hits (before %+v, after %+v)",
			tenants*jobsPer, statsBefore, statsAfter)
	}

	// Every job settled exactly once: its log holds one terminal event,
	// as the last event, and the admission counters balance the terminal
	// ones.
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		j := s.job(id)
		if n, last := terminalEvents(j); n != 1 || !last {
			t.Errorf("job %s: %d terminal events (last event terminal: %v), want exactly one, last: %s",
				id, n, last, eventNames(j))
		}
	}
	count := func(name string) int64 { return s.reg.Counter(name).Value() }
	admitted := count("server_admit_full") + count("server_admit_degrade")
	settled := count("server_jobs_done") + count("server_jobs_failed") + count("server_jobs_cancelled")
	if admitted != settled {
		t.Errorf("admit_full + admit_degrade = %d, but done + failed + cancelled = %d", admitted, settled)
	}

	shutdown()
	testutil.WaitGoroutinesSettle(t, before)
}

func soakRequest(seed int64) jobRequest {
	return jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: seed, Threads: 2}
}

// soakOneJob submits one job and verifies its notebook bytes against the
// reference. It returns errors instead of calling t.Fatal because it
// runs on a non-test goroutine.
func soakOneJob(base, tenant string, seed int64, want []byte) error {
	req := soakRequest(seed)
	req.Tenant = tenant
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/notebooks", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var admit admitResponse
	err = json.NewDecoder(resp.Body).Decode(&admit)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("admission status %d (%s)", resp.StatusCode, admit.Error)
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s never finished", admit.JobID)
		}
		st, body, err := soakGet(base + "/v1/jobs/" + admit.JobID)
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			return fmt.Errorf("status poll: %d", st)
		}
		var v jobStatusView
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		switch v.State {
		case stateDone:
			st, got, err := soakGet(base + "/v1/jobs/" + admit.JobID + "/result?format=ipynb")
			if err != nil {
				return err
			}
			if st != http.StatusOK {
				return fmt.Errorf("result fetch: %d", st)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("notebook bytes differ from one-shot reference (%d vs %d bytes)", len(got), len(want))
			}
			return nil
		case stateFailed, stateCancelled:
			return fmt.Errorf("job finished %s (%s)", v.State, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func soakGet(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// TestServerShedsAtQueueBounds fills the admission queue past its bound
// and asserts 429s with the governor's shed vocabulary, then drains
// cleanly.
func TestServerShedsAtQueueBounds(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 400)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1, QueueDepth: 3})
	defer shutdown()
	loadRelation(t, base, "tiny", csvPath)

	// A slow job pins the single worker so everything behind it queues.
	slow := jobRequest{Relation: "tiny", Queries: 4, Perms: 40000, Seed: 1}
	slowID := submitJob(t, base, slow)

	submit := func(tenant string, seed int64) (int, admitResponse) {
		req := soakRequest(seed)
		req.Tenant = tenant
		status, body := postJSON(t, base+"/v1/notebooks", req)
		var resp admitResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("admission response not JSON: %v: %s", err, body)
		}
		return status, resp
	}

	// Three jobs fill the queue, whichever tenants send them; the fourth
	// trips the bound.
	if st, r := submit("a", 1); st != http.StatusAccepted || r.Admit != "degrade" {
		t.Fatalf("first queued job: status %d admit %q, want 202 degrade", st, r.Admit)
	}
	for seed, tenant := range []string{"a", "b"} {
		if st, _ := submit(tenant, int64(seed+2)); st != http.StatusAccepted {
			t.Fatalf("queued job %d: status %d, want 202", seed+2, st)
		}
	}
	if st, r := submit("b", 5); st != http.StatusTooManyRequests || r.Admit != "shed" {
		t.Errorf("global queue full: status %d admit %q, want 429 shed", st, r.Admit)
	}

	// Cancel the pinned job so shutdown doesn't wait out 40k permutations.
	delReq, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+slowID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
}
