package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModuleMapMatchesTree pins DESIGN.md §3 to the source tree: every
// directory holding non-test Go, outside the separate perfbench module,
// has a row whose "kept by" cell names what needs it, and every row names
// a directory that exists. A package added without a reason to exist, or
// deleted without its row, fails here.
func TestModuleMapMatchesTree(t *testing.T) {
	rows := moduleMapRows(t)
	for dir := range goSourceDirs(t) {
		keptBy, ok := rows[dir]
		switch {
		case !ok:
			t.Errorf("%s holds non-test Go but has no row in DESIGN.md §3", dir)
		case keptBy == "":
			t.Errorf("%s: empty \"kept by\" cell in DESIGN.md §3", dir)
		}
	}
	for dir := range rows {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("DESIGN.md §3 has a row for %s, which is not a directory", dir)
		}
	}
}

// moduleMapRows parses the §3 table of DESIGN.md into directory → "kept
// by" cell. A row's directory is the first backquoted name in its first
// cell, "." for the root package.
func moduleMapRows(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]string)
	header := true
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if header {
			if len(cells) != 3 || strings.TrimSpace(cells[2]) != "Kept by" {
				t.Fatalf("DESIGN.md §3 header is %q, want three columns ending in \"Kept by\"", line)
			}
			header = false
			continue
		}
		if strings.HasPrefix(strings.TrimSpace(cells[0]), "---") {
			continue
		}
		if len(cells) != 3 {
			t.Errorf("DESIGN.md §3 row has %d cells, want 3: %q", len(cells), line)
			continue
		}
		quoted := strings.Split(cells[0], "`")
		if len(quoted) < 3 || quoted[1] == "" {
			t.Errorf("DESIGN.md §3 row names no directory: %q", line)
			continue
		}
		name := quoted[1]
		if _, dup := rows[name]; dup {
			t.Errorf("DESIGN.md §3 has two rows for %s", name)
		}
		rows[name] = strings.TrimSpace(cells[2])
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §3 has no rows")
	}
	return rows
}

// goSourceDirs returns every directory under the repository root that
// holds a non-test .go file, skipping hidden directories, testdata and
// the perfbench module.
func goSourceDirs(t *testing.T) map[string]bool {
	t.Helper()
	dirs := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}
