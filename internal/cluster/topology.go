package cluster

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// Topology maps server addresses to TCP endpoints for real deployments
// (cmd/kvserver, cmd/kvctl).
type Topology struct {
	DCs        int
	Partitions int
	Directory  map[wire.Addr]string
}

// ParseTopology reads a topology description, one entry per line:
//
//	<dc> <partition|stab> <host:port>
//
// Blank lines and lines starting with '#' are ignored. The DC and
// partition counts are inferred from the entries, and every DC must list
// every partition: a hole would leave ROT legs and replication streams
// retrying an address nobody serves. Stabilizer lines are optional (the
// dependency-list families run none).
func ParseTopology(r io.Reader) (*Topology, error) {
	t := &Topology{Directory: make(map[wire.Addr]string)}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("topology line %d: want 3 fields, got %d", line, len(fields))
		}
		dc, err := strconv.Atoi(fields[0])
		if err != nil || dc < 0 || dc > wire.MaxDC {
			return nil, fmt.Errorf("topology line %d: bad dc %q (max %d)", line, fields[0], wire.MaxDC)
		}
		if dc+1 > t.DCs {
			t.DCs = dc + 1
		}
		var addr wire.Addr
		if fields[1] == "stab" {
			addr = wire.StabilizerAddr(dc)
		} else {
			part, err := strconv.Atoi(fields[1])
			if err != nil || part < 0 || part > wire.MaxPartition {
				return nil, fmt.Errorf("topology line %d: bad partition %q (max %d)", line, fields[1], wire.MaxPartition)
			}
			if part+1 > t.Partitions {
				t.Partitions = part + 1
			}
			addr = wire.ServerAddr(dc, part)
		}
		if _, dup := t.Directory[addr]; dup {
			return nil, fmt.Errorf("topology line %d: duplicate entry for %v", line, addr)
		}
		t.Directory[addr] = fields[2]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Partitions == 0 {
		return nil, fmt.Errorf("topology: no partitions defined")
	}
	for dc := 0; dc < t.DCs; dc++ {
		for p := 0; p < t.Partitions; p++ {
			if _, ok := t.Directory[wire.ServerAddr(dc, p)]; !ok {
				return nil, fmt.Errorf("topology: no entry for dc %d partition %d (have %d DCs x %d partitions)", dc, p, t.DCs, t.Partitions)
			}
		}
	}
	return t, nil
}
