// Package repository implements the Workflow Repository Service of
// Fig. 4: it "stores workflow scripts (schema) and provides operations
// for initializing, modifying and inspecting scripts". Scripts are stored
// as source text in versioned persistent objects; every put is
// compile-checked so the repository only ever hands out valid schemas.
package repository

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/script/sema"
	"repro/internal/store"
)

// ErrNoSchema is returned when a named schema is absent.
var ErrNoSchema = errors.New("schema not found")

// Entry describes one stored schema version.
type Entry struct {
	Name    string
	Version int
	Source  string
}

// meta is the persisted per-schema header.
type meta struct {
	Name     string
	Versions int
}

// Service is the repository: a thin, transactional layer over the
// persistent object store, plus an in-memory compiled-schema cache.
type Service struct {
	reg *persist.Registry

	mu    sync.Mutex
	cache map[string]cached // name -> compiled current version
}

type cached struct {
	version int
	schema  *core.Schema
}

// New opens a repository over the given persistent registry.
func New(reg *persist.Registry) *Service {
	return &Service{reg: reg, cache: make(map[string]cached)}
}

func metaID(name string) store.ID {
	return store.ID("repo/" + name + "/meta")
}

func versionID(name string, v int) store.ID {
	return store.ID(fmt.Sprintf("repo/%s/v%06d", name, v))
}

// Put validates, compiles and stores source as the next version of the
// named schema, returning the new version number. The version chain and
// header update commit in one transaction.
func (s *Service) Put(name, source string) (int, error) {
	if name == "" || strings.ContainsRune(name, '/') {
		return 0, fmt.Errorf("put schema: invalid name %q", name)
	}
	schema, err := sema.CompileSource(name, []byte(source))
	if err != nil {
		return 0, fmt.Errorf("put schema %s: %w", name, err)
	}

	tx := s.reg.Manager().Begin()
	var m meta
	metaObj := s.reg.Object(metaID(name))
	if err := metaObj.Get(tx, &m); err != nil && !errors.Is(err, persist.ErrNoState) {
		_ = tx.Abort()
		return 0, err
	}
	m.Name = name
	m.Versions++
	if err := s.reg.Object(versionID(name, m.Versions)).Set(tx, Entry{Name: name, Version: m.Versions, Source: source}); err != nil {
		_ = tx.Abort()
		return 0, err
	}
	if err := metaObj.Set(tx, m); err != nil {
		_ = tx.Abort()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.cache[name] = cached{version: m.Versions, schema: schema}
	s.mu.Unlock()
	return m.Versions, nil
}

// Get returns the current version entry of the named schema.
func (s *Service) Get(name string) (Entry, error) {
	var m meta
	if err := s.reg.Peek(metaID(name), &m); err != nil {
		if errors.Is(err, persist.ErrNoState) {
			return Entry{}, fmt.Errorf("get schema %s: %w", name, ErrNoSchema)
		}
		return Entry{}, err
	}
	return s.GetVersion(name, m.Versions)
}

// GetVersion returns a specific version entry.
func (s *Service) GetVersion(name string, version int) (Entry, error) {
	var e Entry
	if err := s.reg.Peek(versionID(name, version), &e); err != nil {
		if errors.Is(err, persist.ErrNoState) {
			return Entry{}, fmt.Errorf("get schema %s v%d: %w", name, version, ErrNoSchema)
		}
		return Entry{}, err
	}
	return e, nil
}

// Compile returns the compiled current version, from cache when fresh.
func (s *Service) Compile(name string) (*core.Schema, error) {
	var m meta
	if err := s.reg.Peek(metaID(name), &m); err != nil {
		if errors.Is(err, persist.ErrNoState) {
			return nil, fmt.Errorf("compile schema %s: %w", name, ErrNoSchema)
		}
		return nil, err
	}
	s.mu.Lock()
	c, ok := s.cache[name]
	s.mu.Unlock()
	if ok && c.version == m.Versions {
		return c.schema, nil
	}
	e, err := s.GetVersion(name, m.Versions)
	if err != nil {
		return nil, err
	}
	schema, err := sema.CompileSource(name, []byte(e.Source))
	if err != nil {
		return nil, fmt.Errorf("compile schema %s v%d: %w", name, m.Versions, err)
	}
	s.mu.Lock()
	s.cache[name] = cached{version: m.Versions, schema: schema}
	s.mu.Unlock()
	return schema, nil
}

// List returns the stored schema names in order.
func (s *Service) List() ([]string, error) {
	ids, err := s.reg.Store().List("repo/")
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, id := range ids {
		rest := strings.TrimPrefix(string(id), "repo/")
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			continue
		}
		name := rest[:slash]
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// History returns the version numbers stored for a schema.
func (s *Service) History(name string) ([]int, error) {
	var m meta
	if err := s.reg.Peek(metaID(name), &m); err != nil {
		if errors.Is(err, persist.ErrNoState) {
			return nil, fmt.Errorf("history %s: %w", name, ErrNoSchema)
		}
		return nil, err
	}
	out := make([]int, 0, m.Versions)
	for v := 1; v <= m.Versions; v++ {
		out = append(out, v)
	}
	return out, nil
}

// Delete removes a schema and all its versions in one transaction.
func (s *Service) Delete(name string) error {
	var m meta
	metaObj := s.reg.Object(metaID(name))
	if err := metaObj.Peek(&m); err != nil {
		if errors.Is(err, persist.ErrNoState) {
			return fmt.Errorf("delete schema %s: %w", name, ErrNoSchema)
		}
		return err
	}
	tx := s.reg.Manager().Begin()
	for v := 1; v <= m.Versions; v++ {
		if err := s.reg.Object(versionID(name, v)).Delete(tx); err != nil {
			_ = tx.Abort()
			return err
		}
	}
	if err := metaObj.Delete(tx); err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.cache, name)
	s.mu.Unlock()
	return nil
}

// Stats returns compiled-schema statistics for inspection tooling.
func (s *Service) Stats(name string) (core.Stats, error) {
	schema, err := s.Compile(name)
	if err != nil {
		return core.Stats{}, err
	}
	return schema.Stats(), nil
}
