// Fixture: failpoint sites and metric instruments for the catalog
// cross-checks. One of each pair is cataloged in the fixture docs (must
// stay clean) and one is not (fires *-undocumented). The second half names
// them the way a service configures the shared server skeleton: sites in
// `*_failpoint` fields, instruments composed from `metric_prefix`.

#include "common/failpoint.h"
#include "common/metrics.h"

namespace dpfs::common {

void Touch() {
  if (failpoint::Check("fixture.documented")) {
  }
  if (failpoint::Check("fixture.undocumented")) {
  }
  metrics::GetCounter("fix.documented").Increment();
  metrics::GetCounter("fix.undocumented").Increment();
}

void Configure(Config& config) {
  config.metric_prefix = "svc";
  config.session_failpoint = "fixture.field_documented";
  config.reply_failpoint = "fixture.field_undocumented";
}

void Register(const Config& config_) {
  metrics::GetCounter(config_.metric_prefix + ".composed_documented");
  metrics::GetGauge(config_.metric_prefix + ".composed_undocumented");
}

}  // namespace dpfs::common
