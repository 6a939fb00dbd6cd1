package ivnt

// CLI integration: builds the command binaries once and drives the
// documented workflow — tracegen → inspect → extract -store → served
// /query → mine — end to end on one store directory.

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"ivnt/internal/core"
	"ivnt/internal/engine"
	"ivnt/internal/segstore"
	"ivnt/internal/serve"
)

// buildCommands compiles the CLI binaries into a temp dir.
func buildCommands(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is slow; skipped with -short")
	}
	bins := buildCommands(t, "tracegen", "inspect", "extract", "mine")
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "syn.ivtr")
	catPath := filepath.Join(dir, "cat.json")
	cfgPath := filepath.Join(dir, "dom.json")
	storeDir := filepath.Join(dir, "results")

	out := runCmd(t, bins["tracegen"], "-dataset", "SYN", "-n", "8000",
		"-o", tracePath, "-catalog", catPath, "-config", cfgPath)
	if !strings.Contains(out, "8000 examples") {
		t.Fatalf("tracegen output:\n%s", out)
	}

	out = runCmd(t, bins["inspect"], "-trace", tracePath, "-catalog", catPath)
	for _, frag := range []string{"rows:     8000", "signal classification", "branch alpha"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("inspect output missing %q:\n%s", frag, out)
		}
	}

	out = runCmd(t, bins["extract"], "-trace", tracePath, "-catalog", catPath,
		"-config", cfgPath, "-store", storeDir, "-maxrows", "3")
	for _, frag := range []string{"K_s rows:", "segments (", "sealed under"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("extract output missing %q:\n%s", frag, out)
		}
	}
	m := regexp.MustCompile(`reduced rows:\s+(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("extract printed no reduced row count:\n%s", out)
	}
	reducedRows, _ := strconv.Atoi(m[1])

	// Serve the sealed reduced sequences in-process and count them per
	// signal: every reduced row extract reported must be queryable.
	stored, err := core.OpenStored(storeDir, "SYN")
	if err != nil {
		t.Fatal(err)
	}
	srv := &serve.Server{
		Exec: engine.NewLocal(2),
		Catalog: serve.NewCatalog(&serve.Config{Tenants: map[string]*serve.TenantConfig{
			"acme": {Relations: map[string]string{"trace": stored.Reduced.Dir()}},
		}}, segstore.Options{}),
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{"tenant": "acme", "sql": "SELECT sid, count(*) AS n FROM trace GROUP BY sid"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr serve.Response
	err = json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("served /query: HTTP %d: %v", resp.StatusCode, err)
	}
	served := 0
	for _, row := range qr.Rows {
		served += int(row[1].(float64))
	}
	if len(qr.Rows) != stored.Reduced.NumSegments() || served != reducedRows {
		t.Fatalf("served %d signals / %d rows, extract reported %d signals / %d rows",
			len(qr.Rows), served, stored.Reduced.NumSegments(), reducedRows)
	}

	out = runCmd(t, bins["mine"], "-store", storeDir, "-domain", "")
	if !strings.Contains(out, "SYN") {
		t.Fatalf("mine listing:\n%s", out)
	}
	out = runCmd(t, bins["mine"], "-store", storeDir, "-domain", "SYN", "-app", "anomaly", "-top", "2")
	if !strings.Contains(out, "culprit=") {
		t.Fatalf("mine anomaly:\n%s", out)
	}
	out = runCmd(t, bins["mine"], "-store", storeDir, "-domain", "SYN", "-app", "graph")
	if !strings.Contains(out, "transitions") {
		t.Fatalf("mine graph:\n%s", out)
	}
	out = runCmd(t, bins["mine"], "-store", storeDir, "-domain", "SYN", "-app", "motif", "-signal", "SYN.num00")
	if !strings.Contains(out, "frequent motifs of SYN.num00") {
		t.Fatalf("mine motif:\n%s", out)
	}
}

func TestCLIClusterExtraction(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is slow; skipped with -short")
	}
	bins := buildCommands(t, "tracegen", "extract", "executor")
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "syn.ivtr")
	catPath := filepath.Join(dir, "cat.json")
	cfgPath := filepath.Join(dir, "dom.json")
	runCmd(t, bins["tracegen"], "-dataset", "SYN", "-n", "4000",
		"-o", tracePath, "-catalog", catPath, "-config", cfgPath)

	// Start an executor process on a fixed loopback port.
	const addr = "127.0.0.1:39077"
	exe := exec.Command(bins["executor"], "-listen", addr)
	if err := exe.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = exe.Process.Kill()
		_, _ = exe.Process.Wait()
	}()
	// Wait for the executor to listen.
	for i := 0; ; i++ {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		if i > 100 {
			t.Fatalf("executor never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	out := runCmd(t, bins["extract"], "-trace", tracePath, "-catalog", catPath,
		"-config", cfgPath, "-cluster", addr, "-maxrows", "2")
	if !strings.Contains(out, "cluster[1 executors") {
		t.Fatalf("extract did not use the cluster:\n%s", out)
	}
	if !strings.Contains(out, "K_s rows:") {
		t.Fatalf("cluster extraction output:\n%s", out)
	}
}
