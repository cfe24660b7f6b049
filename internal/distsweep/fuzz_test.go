package distsweep

import (
	"encoding/json"
	"testing"

	"cosched/internal/experiments"
	"cosched/internal/journal"
)

// bytesFS serves one fixed byte string as every file; loadCheckpoint only
// reads.
type bytesFS struct {
	journal.FS
	data []byte
}

func (b bytesFS) ReadFile(string) ([]byte, error) { return b.data, nil }

// FuzzLoadCheckpoint drives arbitrary bytes through the checkpoint
// decoder a resuming coordinator trusts. The contract under fuzzing:
// never panic; reject with an error and no checkpoint, or accept a
// checkpoint for this sweep whose every group is in range and carries a
// full group of rows — never a partial value alongside an error.
func FuzzLoadCheckpoint(f *testing.F) {
	const sum, numGroups = "0123456789abcdef", 3
	valid, err := json.Marshal(&Checkpoint{
		Version: checkpointVersion, CfgSum: sum, NumGroups: numGroups,
		Groups: []CheckpointGroup{{Group: 1, Rows: make([]experiments.CellRow, experiments.RowsPerGroup())}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":1,"cfgsum":"0123456789abcdef","numgroups":3,"groups":[{"group":3,"rows":[]}]}`))
	f.Add([]byte(`{"version":2,"cfgsum":"0123456789abcdef","numgroups":3}`))
	f.Add([]byte(`{"version":1,"cfgsum":"deadbeefdeadbeef","numgroups":3}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := loadCheckpoint(bytesFS{data: data}, "sweep.ckpt", sum, numGroups)
		if err != nil {
			if cp != nil {
				t.Fatalf("loadCheckpoint returned a checkpoint alongside error %v", err)
			}
			return
		}
		if cp == nil {
			t.Fatal("an existing checkpoint was neither loaded nor rejected")
		}
		if cp.Version != checkpointVersion || cp.CfgSum != sum || cp.NumGroups != numGroups {
			t.Fatalf("foreign checkpoint accepted: %+v", cp)
		}
		for _, g := range cp.Groups {
			if g.Group < 0 || g.Group >= numGroups || len(g.Rows) != experiments.RowsPerGroup() {
				t.Fatalf("accepted group %d with %d rows", g.Group, len(g.Rows))
			}
		}
	})
}
