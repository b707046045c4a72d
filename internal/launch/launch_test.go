package launch

import (
	"testing"
	"time"

	"repro/internal/obs/collector"
	"repro/internal/par/nettrans"
)

// setJobEnv populates the SPMD child environment the way Spawn does,
// with t.Setenv so the test runner restores it.
func setJobEnv(t *testing.T, kv map[string]string) {
	t.Helper()
	for _, k := range []string{rankEnv, sizeEnv, networkEnv, registryEnv, epochEnv, obsEnv, collectorEnv} {
		t.Setenv(k, kv[k])
	}
}

func TestFromEnvTelemetryRoundTrip(t *testing.T) {
	tel := Telemetry{
		ObsAddr:   "127.0.0.1:0",
		Collector: "http://127.0.0.1:9090",
	}
	kv := map[string]string{
		rankEnv: "2", sizeEnv: "4", networkEnv: "tcp",
		registryEnv: "/tmp/reg", epochEnv: "17",
	}
	for _, e := range tel.env() {
		for i := 0; i < len(e); i++ {
			if e[i] == '=' {
				kv[e[:i]] = e[i+1:]
				break
			}
		}
	}
	setJobEnv(t, kv)

	c, ok, err := FromEnv()
	if err != nil || !ok {
		t.Fatalf("FromEnv = %v, %v", ok, err)
	}
	if c.Rank != 2 || c.Size != 4 || c.Network != "tcp" || c.Registry != "/tmp/reg" || c.Epoch != 17 {
		t.Fatalf("job fields mangled: %+v", c)
	}
	if c.ObsAddr != tel.ObsAddr || c.Collector != tel.Collector {
		t.Fatalf("telemetry fields mangled: %+v", c)
	}
}

func TestFromEnvNotAChild(t *testing.T) {
	setJobEnv(t, nil)
	if _, ok, err := FromEnv(); ok || err != nil {
		t.Fatalf("empty env should mean not-a-child, got ok=%v err=%v", ok, err)
	}
}

func TestFromEnvRejectsBadRank(t *testing.T) {
	setJobEnv(t, map[string]string{
		rankEnv: "7", sizeEnv: "4", networkEnv: "tcp",
		registryEnv: "/tmp/reg", epochEnv: "1",
	})
	if _, _, err := FromEnv(); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestCollectorRegistryDiscovery: startCollector publishes its bound
// address as the "collector" service, the same rendezvous asmtop's
// -registry flag resolves.
func TestCollectorRegistryDiscovery(t *testing.T) {
	dir := t.TempDir()
	srv, url, err := startCollector(collector.Config{Ranks: 2, Job: "launch-test"}, "127.0.0.1:0", dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, err := nettrans.WaitService(dir, CollectorService, 0, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got != url {
		t.Fatalf("registry names %q, startCollector returned %q", got, url)
	}
}
