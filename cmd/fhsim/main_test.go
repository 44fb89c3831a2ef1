package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestRunTable(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run([]string{"-hosts", "1", "-duration", "8s"}, f); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, _ := os.ReadFile(f.Name())
	out := string(data)
	for _, want := range []string{"flows:", "handoffs:", "real-time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	// A hundred hosts overflow the wired queues: the table prints every
	// drop site the report carries, the link queue's among them.
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-hosts", "100", "-duration", "8s"}, f); err != nil {
		t.Fatalf("run -hosts 100: %v", err)
	}
	data, _ = os.ReadFile(f.Name())
	if !strings.Contains(string(data), "\n  link-queue ") {
		t.Errorf("-hosts 100 table has no link-queue row:\n%s", data)
	}
}

func TestRunJSON(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run([]string{"-json", "-duration", "8s"}, f); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, _ := os.ReadFile(f.Name())
	if !strings.Contains(string(data), "\"Flows\"") {
		t.Error("JSON output missing Flows")
	}
}

func TestParseSchemeAndClasses(t *testing.T) {
	for _, name := range []string{"none", "original", "par", "dual", "enhanced"} {
		if _, err := parseScheme(name); err != nil {
			t.Errorf("parseScheme(%q): %v", name, err)
		}
	}
	if _, err := parseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
	flows, err := parseClasses("rt,hp,be,none", 160, 20*time.Millisecond)
	if err != nil || len(flows) != 4 {
		t.Fatalf("parseClasses: %v %v", flows, err)
	}
	if _, err := parseClasses("xx", 160, time.Millisecond); err == nil {
		t.Error("bogus class accepted")
	}
}

func TestBadFlags(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, args := range [][]string{
		{"-scheme", "bogus"},
		{"-pool", "2"},     // α 2 ≥ pool 2 would refuse every best-effort packet
		{"-interval", "0"}, // a CBR source needs a positive interval
		{"-loss", "1.5"},   // a probability
		{"-hosts", "0"},    // nothing to simulate
		{"-size", "0"},     // zero-byte packets
		{"-duration", "-5s"},
		{"-duration", "0"},
		{"-l2delay", "0"}, // zero would select the 200 ms default
		{"-ardelay", "0"}, // zero would select the 2 ms default
	} {
		if err := run(args, devnull); err == nil {
			t.Errorf("run(%q) accepted a bad flag", args)
		}
	}
}
