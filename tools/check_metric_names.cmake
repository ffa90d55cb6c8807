# Metric-name lint, runnable under ctest (lint.metric_names):
#
#   cmake -DNAMES_HEADER=<src/obs/metric_names.hpp> \
#         -DDOC=<docs/observability.md> -P check_metric_names.cmake
#
# The daemon's metric names live as constants in obs/metric_names.hpp so
# exposition, tests, and docs share one spelling. This script keeps that
# contract honest: every constant must be snake_case (Prometheus-safe
# before the hs_ prefix), unique, and documented in docs/observability.md
# — a metric nobody documented is a metric nobody can alert on.

cmake_policy(SET CMP0057 NEW)  # IN_LIST in script (-P) mode

if(NOT NAMES_HEADER)
  message(FATAL_ERROR "pass -DNAMES_HEADER=<path to metric_names.hpp>")
endif()
if(NOT DOC)
  message(FATAL_ERROR "pass -DDOC=<path to observability.md>")
endif()

file(READ ${NAMES_HEADER} header)
file(READ ${DOC} doc)

# Every `kMetric… = "name";` constant.
string(REGEX MATCHALL
       "kMetric[A-Za-z0-9]+[ \t\n]*=[ \t\n]*\"[^\"]+\""
       declarations "${header}")
if(declarations STREQUAL "")
  message(FATAL_ERROR "no kMetric… constants found in ${NAMES_HEADER}")
endif()

set(names "")
set(problems "")
foreach(declaration IN LISTS declarations)
  string(REGEX REPLACE ".*\"([^\"]+)\"" "\\1" name "${declaration}")

  if(NOT name MATCHES "^[a-z][a-z0-9]*(_[a-z0-9]+)*$")
    list(APPEND problems "'${name}' is not snake_case")
  endif()
  if(name IN_LIST names)
    list(APPEND problems "'${name}' is declared twice")
  endif()
  list(APPEND names ${name})

  # Counters end in _total; a _total suffix on a non-counter reads as one.
  # (Gauges and histograms carry no suffix.) Documented names are matched
  # literally: the doc table must contain the exact metric string.
  if(NOT doc MATCHES "${name}")
    list(APPEND problems "'${name}' is not documented in ${DOC}")
  endif()
endforeach()

if(NOT problems STREQUAL "")
  foreach(problem IN LISTS problems)
    message(SEND_ERROR "metric lint: ${problem}")
  endforeach()
  message(FATAL_ERROR "metric-name lint failed")
endif()

list(LENGTH names count)
message(STATUS "metric lint: ${count} names snake_case, unique, documented")
