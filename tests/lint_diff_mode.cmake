# Behavioral check for `cograd lint --diff OLD.json`: the diff gate fails
# only on findings that are NOT in the reference manifest. Four legs:
#
#   1. the r8_thread fixture without --diff exits nonzero (sanity),
#   2. the same tree diffed against its own manifest exits 0 — every
#      finding is carried over, none is new,
#   3. a different fixture tree diffed against that manifest exits
#      nonzero — its findings are absent from the reference,
#   4. --diff without --json writes no manifest: with the reference named
#      LINT.json, two runs of leg 3 both fail and leave its bytes as they
#      were. This leg works in a directory of its own, since cograd.lint
#      writes LINT.json into the shared test directory.
#
# Invoked by ctest as:
#   cmake -DCOGRAD=<cograd> -DFIXTURES=<tests/lint_fixtures> -P lint_diff_mode.cmake
execute_process(
  COMMAND ${COGRAD} lint --tree ${FIXTURES}/r8_thread --json diff_base.json
  RESULT_VARIABLE base
  OUTPUT_QUIET)
if(base EQUAL 0)
  message(FATAL_ERROR "r8_thread fixture unexpectedly linted clean")
endif()
execute_process(
  COMMAND ${COGRAD} lint --tree ${FIXTURES}/r8_thread --diff diff_base.json
          --json diff_same.json
  RESULT_VARIABLE same
  OUTPUT_QUIET)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
          "--diff against the tree's own manifest must pass (got ${same})")
endif()
execute_process(
  COMMAND ${COGRAD} lint --tree ${FIXTURES}/r10_rng --diff diff_base.json
          --json diff_new.json
  RESULT_VARIABLE fresh
  OUTPUT_QUIET)
if(fresh EQUAL 0)
  message(FATAL_ERROR "--diff must fail on findings absent from the reference")
endif()
set(own ${CMAKE_CURRENT_BINARY_DIR}/lint_diff_mode)
file(REMOVE_RECURSE ${own})
file(MAKE_DIRECTORY ${own})
configure_file(diff_base.json ${own}/LINT.json COPYONLY)
file(READ ${own}/LINT.json reference)
foreach(run 1 2)
  execute_process(
    COMMAND ${COGRAD} lint --tree ${FIXTURES}/r10_rng --diff LINT.json
    WORKING_DIRECTORY ${own}
    RESULT_VARIABLE rerun
    OUTPUT_QUIET)
  if(rerun EQUAL 0)
    message(FATAL_ERROR "--diff run ${run} must fail on findings absent from LINT.json")
  endif()
  file(READ ${own}/LINT.json after)
  if(NOT after STREQUAL reference)
    message(FATAL_ERROR "--diff without --json rewrote its reference LINT.json")
  endif()
endforeach()
