package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tracex"
	"tracex/internal/store"
)

// This file implements the CLI surface of the persistent signature store:
//
//	tracex export -key app@cores@machine [-hash hex] -out sig.json
//	tracex import -in sig.json
//	tracex store ls
//	tracex store gc
//
// The store location follows the XDG Base Directory convention: the global
// -store-dir flag wins, then $XDG_CACHE_HOME/tracex/store, then
// $HOME/.cache/tracex/store. `-store-dir off` runs without persistence.

// resolveStoreDir maps the -store-dir flag value to the store directory;
// "" selects the XDG default and "off" disables the store entirely.
func resolveStoreDir(flagVal string) (string, error) {
	switch flagVal {
	case "off":
		return "", nil
	case "":
		if dir := os.Getenv("XDG_CACHE_HOME"); dir != "" {
			return filepath.Join(dir, "tracex", "store"), nil
		}
		home, err := os.UserHomeDir()
		if err != nil {
			return "", fmt.Errorf("resolving the default store directory ($XDG_CACHE_HOME or $HOME/.cache/tracex/store): %w", err)
		}
		return filepath.Join(home, ".cache", "tracex", "store"), nil
	default:
		return flagVal, nil
	}
}

// engineStore returns the engine's persistent store, or a usage error when
// the run is store-less.
func engineStore(eng *tracex.Engine) (*tracex.SignatureStore, error) {
	if err := eng.Err(); err != nil {
		return nil, err
	}
	st := eng.Store()
	if st == nil {
		return nil, fmt.Errorf("no signature store (running with -store-dir off)")
	}
	return st, nil
}

// parseStoreKey splits "app@cores@machine" into its fields.
func parseStoreKey(key string) (app string, cores int, machineName string, err error) {
	parts := strings.Split(key, "@")
	if len(parts) != 3 {
		return "", 0, "", fmt.Errorf("store key %q is not app@cores@machine", key)
	}
	cores, err = strconv.Atoi(parts[1])
	if err != nil || cores <= 0 {
		return "", 0, "", fmt.Errorf("store key %q has a non-positive core count", key)
	}
	return parts[0], cores, parts[2], nil
}

// cmdExport copies one stored signature out of the store into a file.
func cmdExport(eng *tracex.Engine, args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	key := fs.String("key", "", "stored signature to export (app@cores@machine; most recent wins)")
	hash := fs.String("hash", "", "exact object content hash to export (overrides -key)")
	out := fs.String("out", "", "output signature path (.json or .bin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*key == "" && *hash == "") || *out == "" {
		return fmt.Errorf("export requires -key (or -hash) and -out")
	}
	st, err := engineStore(eng)
	if err != nil {
		return err
	}
	var sig *tracex.Signature
	switch {
	case *hash != "":
		if sig, err = st.GetHash(*hash); err != nil {
			return err
		}
	default:
		app, cores, machineName, err := parseStoreKey(*key)
		if err != nil {
			return err
		}
		entry, found := st.LatestEntry(app, machineName, cores)
		if !found {
			return fmt.Errorf("no stored signature for %s in %s", *key, st.Dir())
		}
		if sig, err = st.GetHash(entry.Hash); err != nil {
			return err
		}
	}
	if err := store.Save(sig, *out); err != nil {
		return err
	}
	fmt.Printf("exported %s@%d@%s → %s\n", sig.App, sig.CoreCount, sig.Machine, *out)
	return nil
}

// cmdImport files a signature from disk into the store under its own
// identity, so later collections of the same (app, cores, machine)
// warm-start from it.
func cmdImport(eng *tracex.Engine, args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	in := fs.String("in", "", "signature path (.json/.bin, or a per-rank directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("import requires -in")
	}
	st, err := engineStore(eng)
	if err != nil {
		return err
	}
	sig, err := loadSignature(*in)
	if err != nil {
		return err
	}
	cfg, err := tracex.LoadMachine(sig.Machine)
	if err != nil {
		return fmt.Errorf("signature names machine %q: %w", sig.Machine, err)
	}
	// Imports are filed under the default collection options — the identity
	// the engine's warm-start path consults.
	entry, err := st.Put(sig, tracex.StoreKey(sig.App, sig.CoreCount, cfg, tracex.CollectOptions{}))
	if err != nil {
		return err
	}
	fmt.Printf("imported %s@%d@%s (%d bytes) as %s\n",
		entry.App, entry.Cores, entry.Machine, entry.Bytes, entry.Hash)
	return nil
}

// cmdStore implements the store maintenance subcommands ls and gc.
func cmdStore(eng *tracex.Engine, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("store requires a subcommand: ls or gc")
	}
	st, err := engineStore(eng)
	if err != nil {
		return err
	}
	switch args[0] {
	case "ls":
		entries := st.Entries()
		if len(entries) == 0 {
			fmt.Printf("store %s is empty\n", st.Dir())
			return nil
		}
		fmt.Printf("%-12s %-14s %6s  %-12s %10s  %s\n", "APP", "MACHINE", "CORES", "HASH", "BYTES", "STORED")
		for _, e := range entries {
			fmt.Printf("%-12s %-14s %6d  %-12s %10d  %s\n",
				e.App, e.Machine, e.Cores, e.Hash[:12], e.Bytes,
				time.Unix(e.Unix, 0).UTC().Format(time.RFC3339))
		}
		return nil
	case "gc":
		stats, err := st.GC()
		if err != nil {
			return err
		}
		fmt.Printf("gc %s: %d live entries (%d bytes); removed %d objects (%d bytes), dropped %d entries, purged %d quarantined\n",
			st.Dir(), stats.LiveEntries, stats.LiveBytes,
			stats.RemovedObjects, stats.ReclaimedBytes,
			stats.DroppedEntries, stats.PurgedQuarantine)
		return nil
	default:
		return fmt.Errorf("unknown store subcommand %q (want ls or gc)", args[0])
	}
}
