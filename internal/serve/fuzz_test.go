package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/sched"
)

// FuzzSimulateRequest runs arbitrary bytes through /v1/simulate's request
// decoding (decodeRequest: a JSON decoder that rejects unknown fields)
// and config resolution (buildConfigs). Neither may panic; every config
// that builds must pass Config.Validate; and respelling a spec's backend
// in another ASCII letter case, or its pattern by sched.ByName's canonical
// name, must give the same writeConfig line, the fingerprint's text for
// that config. ModelSpec.Build stays out of the loop: one model build
// costs 40–220 ms.
func FuzzSimulateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"model":"AlexNet-ES"}`,
		`{"model":"mobilenet","configs":[{"backend":"dense"},{"backend":"TCLe","pattern":"T8<2,5>","width":8}]}`,
		`{"model":"x","configs":[{"backend":"front-end","pattern":"L4<1,2>"},{"backend":"FE","pattern":"X<inf,15>"}]}`,
		`{"model":"x","configs":[{"backend":"tclp"},{"backend":"dstripes-sm","width":16}],"stream":true,"timeout_ms":5}`,
		`{"model":"x","configs":[{"backend":"dadiannao","pattern":"T4<2,2>"}]}`,
		`{"model":"x","configs":[{"backend":"tcle","width":12}]}`,
		`{"model":"x","configs":[{"backend":"tcle","pattern":"t8<2,5>"}]}`,
		`{"model":"x","unknown":1}`,
		`{"model":"x","configs":[{"backend":"tcle","extra":true}]}`,
		`{"configs":null,"batch":-3,"channel_scale":1e309}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{})
	defer s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SimulateRequest
		r := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
		if !s.decodeRequest(httptest.NewRecorder(), r, &req) {
			return
		}
		cfgs, err := buildConfigs(req.Configs)
		if err != nil {
			return
		}
		specs := req.Configs
		if len(specs) == 0 {
			specs = DefaultConfigs()
		}
		for i, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("configs[%d] %+v builds but fails Validate: %v", i, specs[i], err)
			}
			alt := specs[i]
			alt.Backend = swapASCIICase(alt.Backend)
			if alt.Pattern != "" {
				p, err := sched.ByName(alt.Pattern)
				if err != nil {
					t.Fatalf("configs[%d] %+v builds with an unknown pattern: %v", i, specs[i], err)
				}
				alt.Pattern = p.Name
			}
			altCfg, err := alt.Build()
			if err != nil {
				t.Fatalf("configs[%d]: %+v builds but its respelling %+v does not: %v", i, specs[i], alt, err)
			}
			if got, want := configLine(altCfg), configLine(cfg); got != want {
				t.Fatalf("configs[%d]: %+v gives %q, its respelling %+v gives %q", i, specs[i], want, alt, got)
			}
		}
	})
}

// swapASCIICase swaps the case of every ASCII letter of s.
func swapASCIICase(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case 'a' <= r && r <= 'z':
			return r - 'a' + 'A'
		case 'A' <= r && r <= 'Z':
			return r - 'A' + 'a'
		}
		return r
	}, s)
}

// configLine is cfg's line of the fingerprint text.
func configLine(cfg arch.Config) string {
	var b strings.Builder
	writeConfig(&b, cfg)
	return b.String()
}
