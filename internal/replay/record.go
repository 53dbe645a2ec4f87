package replay

import (
	"encoding/json"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Record is the committed BENCH_replay.json document: a report stamped with
// the date, toolchain, host shape and git commit it was taken on.
type Record struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the HEAD hash of the tree the record was taken from (empty
	// outside a git checkout: absence of provenance is not an error).
	Commit string   `json:"commit,omitempty"`
	Tags   []string `json:"tags,omitempty"`
	Replay *Report  `json:"replay"`
}

// NewRecord stamps rep with the run environment, tagged "replay" and the
// scenario name.
func NewRecord(rep *Report) Record {
	rec := Record{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Tags:       []string{"replay", rep.Scenario},
		Replay:     rep,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rec.Commit = strings.TrimSpace(string(out))
	}
	return rec
}

// Marshal renders the record as the committed file format (indented,
// trailing newline).
func (rec Record) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
