package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"mptcpsim/internal/scenario"
)

// ciSmokeBody is the spec CI's campaign and serve smoke steps submit.
const ciSmokeBody = `{"name":"ci","n":8,"warmup_sec":{"kind":"const","value":1},"duration_sec":{"kind":"uniform","min":1.2,"max":1.8},"link_rate_mbps":{"kind":"loguniform","min":1,"max":4}}`

// FuzzDecodeSpec: whatever bytes arrive from a -spec file or a request body
// are rejected or become a campaign whose scenarios build. A spec Decode
// accepts has passed Validate, so every scenario sampled from it must pass
// the scenario DSL's own Validate and compile; nothing on the way panics.
func FuzzDecodeSpec(f *testing.F) {
	def, err := json.Marshal(Default())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{}`,
		ciSmokeBody,
		string(def),
		`{"flow_bytes":{"kind":"loguniform","min":1,"max":4e6},"schedulers":["minrtt","redundant",""],"paths":{"min":2,"max":4}}`,
		`{"faults":{"events":{"min":1,"max":6},"blackhole":true,"flap":true},"link_loss_pct":{"kind":"choice","choices":[0,5]}}`,
		`{} garbage`,
		`{}{"n":9}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		sp = sp.fill()
		for i := 0; i < 4; i++ {
			spec := sp.SampleSpec(i)
			if err := spec.Validate(); err != nil {
				t.Fatalf("scenario %d of an accepted campaign is invalid: %v\ncampaign: %s", i, err, data)
			}
			if _, err := scenario.Compile(spec); err != nil {
				t.Fatalf("scenario %d of an accepted campaign does not compile: %v\ncampaign: %s", i, err, data)
			}
		}
	})
}
