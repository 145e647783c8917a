// CSV exports of the figure data series.
//
// The reports print human-readable tables; these functions emit the
// underlying data as CSV so the figures can be re-plotted with external
// tooling (matplotlib, gnuplot, R): `rootstore report <name> --csv` for
// fig1, fig3, fig4 and churn.  They run on the study's database, interner
// and pool, so the bytes are identical for any worker count.
#pragma once

#include <string>

#include "src/core/study.h"

namespace rs::core {

/// Figure 1: one row per embedded snapshot —
/// provider,family,date,version,x,y,cluster
std::string figure1_csv(const EcosystemStudy& study,
                        std::size_t max_per_provider = 25);

/// Figure 3: one row per derivative sample —
/// provider,date,matched_version,current_version,versions_behind
std::string figure3_csv(const EcosystemStudy& study);

/// Figure 4: one row per derivative snapshot —
/// provider,date,matched_version,add_* and remove_* category counts
std::string figure4_csv(const EcosystemStudy& study);

/// §4 churn: one row per snapshot —
/// provider,date,added,removed,change_fraction,is_outlier
std::string churn_csv(const EcosystemStudy& study);

}  // namespace rs::core
