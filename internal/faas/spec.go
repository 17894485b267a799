// spec.go defines function and application specifications: the deployment
// metadata developers provide (the paper's extended OpenFaaS YAML with
// in-storage acceleration hints) and its parser.
package faas

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dscs/internal/units"
	"dscs/internal/workload"
)

// FunctionSpec is one function's deployment configuration.
type FunctionSpec struct {
	Name  string
	Image string
	// Accelerated is the deployment-time hint marking the function as
	// runnable on an in-storage DSA (Section 5.1's YAML extension).
	Accelerated bool
	// Domain names the accelerator domain the function belongs to.
	Domain  string
	Timeout time.Duration
	Memory  units.Bytes
}

// Validate rejects incomplete specs.
func (f FunctionSpec) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("faas: function with empty name")
	}
	if f.Image == "" {
		return fmt.Errorf("faas: function %q has no image", f.Name)
	}
	if f.Timeout <= 0 {
		return fmt.Errorf("faas: function %q has no timeout", f.Name)
	}
	if f.Accelerated && f.Domain == "" {
		return fmt.Errorf("faas: accelerated function %q needs a domain", f.Name)
	}
	return nil
}

// Application is a DAG of functions; the Table 1 pipelines are chains.
type Application struct {
	Name      string
	Functions map[string]*FunctionSpec
	Chain     []string // invocation order
	Storage   string   // bucket the functions exchange data through
}

// Validate checks chain/function consistency.
func (a *Application) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("faas: application with empty name")
	}
	if len(a.Chain) == 0 {
		return fmt.Errorf("faas: application %q has an empty chain", a.Name)
	}
	for _, fn := range a.Chain {
		spec, ok := a.Functions[fn]
		if !ok {
			return fmt.Errorf("faas: application %q chains unknown function %q", a.Name, fn)
		}
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// AcceleratedPrefix returns the leading run of accelerated functions in the
// chain — the group DSCS-Serverless maps onto one DSCS-Drive (chained
// functions sharing a DSA stay on the drive, Section 5.3).
func (a *Application) AcceleratedPrefix() []string {
	var out []string
	for _, fn := range a.Chain {
		if spec := a.Functions[fn]; spec != nil && spec.Accelerated {
			out = append(out, fn)
			continue
		}
		break
	}
	return out
}

// ParseApplication parses a deployment YAML into an Application.
func ParseApplication(src string) (*Application, error) {
	root, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	app := &Application{
		Name:      root.Str("name", ""),
		Storage:   root.Str("storage", ""),
		Functions: map[string]*FunctionSpec{},
	}
	if fns, ok := root.Get("functions"); ok && fns.IsMap() {
		for _, name := range fns.Keys {
			f := fns.Map[name]
			app.Functions[name] = &FunctionSpec{
				Name:        name,
				Image:       f.Str("image", ""),
				Accelerated: f.Bool("accelerated", false),
				Domain:      f.Str("domain", ""),
				Timeout:     f.Duration("timeout", 30*time.Second),
				Memory:      units.Bytes(f.Int("memory_mb", 256)) * units.MB,
			}
		}
	}
	if chain, ok := root.Get("chain"); ok {
		app.Chain = chain.List
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// DeploymentYAML renders the deployment file for a Table 1 benchmark: the
// three-function chain with the DSA hints on f1 and f2.
func DeploymentYAML(b *workload.Benchmark) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "name: %s\n", b.Slug)
	fmt.Fprintf(&sb, "storage: s3://dscs-%s\n", b.Slug)
	sb.WriteString("functions:\n")
	fmt.Fprintf(&sb, "  preprocess:\n")
	fmt.Fprintf(&sb, "    image: dscs/%s-prep:1.0\n", b.Slug)
	fmt.Fprintf(&sb, "    accelerated: true\n")
	fmt.Fprintf(&sb, "    domain: ml\n")
	fmt.Fprintf(&sb, "    timeout: 30s\n")
	fmt.Fprintf(&sb, "    memory_mb: 512\n")
	fmt.Fprintf(&sb, "  inference:\n")
	fmt.Fprintf(&sb, "    image: dscs/%s-model:1.0\n", b.Slug)
	fmt.Fprintf(&sb, "    accelerated: true\n")
	fmt.Fprintf(&sb, "    domain: ml\n")
	fmt.Fprintf(&sb, "    timeout: 60s\n")
	fmt.Fprintf(&sb, "    memory_mb: 2048\n")
	fmt.Fprintf(&sb, "  notify:\n")
	fmt.Fprintf(&sb, "    image: dscs/notify:1.0\n")
	fmt.Fprintf(&sb, "    accelerated: false\n")
	fmt.Fprintf(&sb, "    timeout: 15s\n")
	fmt.Fprintf(&sb, "    memory_mb: 128\n")
	sb.WriteString("chain: [preprocess, inference, notify]\n")
	return sb.String()
}

// apps memoizes AppFor: slug -> *Application.
var apps sync.Map

// AppFor parses the default deployment for a benchmark. DeploymentYAML
// reads only b.Slug, so the Application is parsed once per slug and
// shared by every later call: callers must treat it as read-only. An
// invalid benchmark is not cached and fails with the parse error each
// time.
func AppFor(b *workload.Benchmark) (*Application, error) {
	if app, ok := apps.Load(b.Slug); ok {
		return app.(*Application), nil
	}
	app, err := ParseApplication(DeploymentYAML(b))
	if err != nil {
		return nil, err
	}
	shared, _ := apps.LoadOrStore(b.Slug, app)
	return shared.(*Application), nil
}
