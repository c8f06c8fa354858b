package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	"bioopera/internal/core"
	"bioopera/internal/store"
)

// cmdRecords decodes and pretty-prints the persist records of a store —
// the operator's window into the binary record format. Every record family
// renders: the four codec families and raw interned process texts.
func cmdRecords(args []string) error {
	fs := flag.NewFlagSet("records", flag.ExitOnError)
	spaceName := fs.String("space", "instance", "space to dump: instance, history, or all")
	prefix := fs.String("prefix", "", "only keys with this prefix (e.g. inst/, task/p0001)")
	keysOnly := fs.Bool("keys", false, "list keys and sizes only, no record bodies")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: bioopera records <store-dir> [-space instance|history|all] [-prefix p] [-keys]")
	}
	dir := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	var spaces []store.Space
	switch *spaceName {
	case "instance":
		spaces = []store.Space{store.Instance}
	case "history":
		spaces = []store.Space{store.History}
	case "all":
		spaces = []store.Space{store.Instance, store.History}
	default:
		return fmt.Errorf("unknown space %q (want instance, history, or all)", *spaceName)
	}
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, sp := range spaces {
		kvs, err := st.List(sp)
		if err != nil {
			return err
		}
		shown := 0
		for _, kv := range kvs {
			if *prefix != "" && !strings.HasPrefix(kv.Key, *prefix) {
				continue
			}
			if shown == 0 {
				fmt.Printf("space %s:\n", sp)
			}
			shown++
			// A decoded record renders as indented JSON, a text as itself.
			rendered, err := core.FormatRecord(kv.Key, kv.Value)
			if _, text := rendered.(string); err == nil && !text {
				rendered, err = json.MarshalIndent(rendered, "", "  ")
			}
			if err != nil {
				fmt.Printf("  %s  [%d bytes]  UNDECODABLE: %v\n", kv.Key, len(kv.Value), err)
				continue
			}
			fmt.Printf("  %s  [%d bytes]\n", kv.Key, len(kv.Value))
			if *keysOnly {
				continue
			}
			for _, line := range strings.Split(fmt.Sprintf("%s", rendered), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
		if shown > 0 {
			fmt.Printf("  (%d records)\n", shown)
		}
	}
	return nil
}
