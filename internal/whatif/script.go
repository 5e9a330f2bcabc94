package whatif

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/can"
	"repro/internal/kmatrix"
)

// ParseScript reads a bus-level change script: one change per line,
// '#' comments and blank lines ignored. This is the exchange format of
// the symtago whatif command — the OEM-side rendering of a supplier's
// revised interface sheet.
//
//	set-jitter   <message> <duration>
//	set-period   <message> <duration>
//	set-id       <message> <id>          (0x-prefixed or decimal)
//	set-dlc      <message> <bytes>
//	set-deadline <message> <duration>
//	scale-jitter <fraction> [only-unknown]
//	add <name> id=<id> dlc=<bytes> period=<duration> [jitter=<duration>] [sender=<node>]
//	    [deadline=<duration>] [extended=<bool>]
//	remove <message>
func ParseScript(r io.Reader) (ChangeSet, error) {
	var changes ChangeSet
	err := forEachScriptLine(r, func(line string) error {
		c, err := parseLine(line)
		if err != nil {
			return err
		}
		changes = append(changes, c)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("whatif: script %w", err)
	}
	return changes, nil
}

// forEachScriptLine runs fn over the meaningful lines of a change
// script — '#' comments and blank lines skipped — wrapping fn errors
// (and scan errors) with the 1-based line position. Both script
// dialects (bus-level ParseScript, system-level ParseSystemScript)
// share this loop.
func forEachScriptLine(r io.Reader, fn func(line string) error) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	return nil
}

func parseLine(line string) (Change, error) {
	fields := strings.Fields(line)
	op, args := fields[0], fields[1:]
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d arguments, got %d", op, n, len(args))
		}
		return nil
	}
	switch op {
	case "set-jitter":
		if err := argc(2); err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(args[1])
		if err != nil {
			return nil, err
		}
		return SetJitter{Message: args[0], Jitter: d}, nil
	case "set-period":
		if err := argc(2); err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(args[1])
		if err != nil {
			return nil, err
		}
		return SetPeriod{Message: args[0], Period: d}, nil
	case "set-id":
		if err := argc(2); err != nil {
			return nil, err
		}
		id, err := parseID(args[1])
		if err != nil {
			return nil, err
		}
		return SetID{Message: args[0], ID: id}, nil
	case "set-dlc":
		if err := argc(2); err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return nil, err
		}
		return SetDLC{Message: args[0], DLC: n}, nil
	case "set-deadline":
		if err := argc(2); err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(args[1])
		if err != nil {
			return nil, err
		}
		return SetDeadline{Message: args[0], Deadline: d}, nil
	case "scale-jitter":
		if len(args) < 1 || len(args) > 2 {
			return nil, fmt.Errorf("scale-jitter takes 1 or 2 arguments, got %d", len(args))
		}
		scale, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return nil, fmt.Errorf("scale-jitter fraction %v is not finite", scale)
		}
		c := ScaleJitter{Scale: scale}
		if len(args) == 2 {
			if args[1] != "only-unknown" {
				return nil, fmt.Errorf("unknown scale-jitter option %q", args[1])
			}
			c.OnlyUnknown = true
		}
		return c, nil
	case "add":
		if len(args) < 1 {
			return nil, fmt.Errorf("add needs a message name")
		}
		return parseAdd(args[0], args[1:])
	case "remove":
		if err := argc(1); err != nil {
			return nil, err
		}
		return RemoveMessage{Message: args[0]}, nil
	default:
		return nil, fmt.Errorf("unknown change %q", op)
	}
}

func parseAdd(name string, kvs []string) (Change, error) {
	row := kmatrix.Message{Name: name}
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("add: want key=value, got %q", kv)
		}
		var err error
		switch k {
		case "id":
			row.ID, err = parseID(v)
		case "dlc":
			row.DLC, err = strconv.Atoi(v)
		case "period":
			row.Period, err = time.ParseDuration(v)
		case "jitter":
			row.Jitter, err = time.ParseDuration(v)
		case "deadline":
			row.Deadline, err = time.ParseDuration(v)
		case "sender":
			row.Sender = v
		case "extended":
			row.Extended, err = strconv.ParseBool(v)
		default:
			return nil, fmt.Errorf("add: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("add %s: %w", k, err)
		}
	}
	if row.Sender == "" {
		row.Sender = "whatif"
	}
	return AddMessage{Row: row}, nil
}

func parseID(s string) (can.ID, error) {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, err
	}
	return can.ID(v), nil
}
