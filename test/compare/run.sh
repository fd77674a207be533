# Runs the bench-regression gate on the fixtures beside this script and
# prints each case's stdout and exit status.
#
#   sh run.sh PATH/TO/compare.exe
#
# base.json is a small baseline; every other fixture is base.json with
# one change, named by its file. e4_paper.json moves E4's remote
# prefixed Open off the paper, and e5_paper.json adds E5's live data at
# 2,700 B, above the paper's 2.6 KB, so each fails as its own baseline
# too.

compare=$1
# The gate appends its markdown summary to $GITHUB_STEP_SUMMARY when
# set; the summary must land on stdout here, inside a CI job too.
unset GITHUB_STEP_SUMMARY

gate() {
  echo "== compare $*"
  "$compare" "$@"
  echo "exit $?"
  echo
}

gate base.json base.json
for fresh in deep_number string_cell missing_key new_key list_length repeated_key \
  host_only e10_miss e4_miss incomplete violations breaches; do
  gate base.json "$fresh.json"
done
gate e4_paper.json e4_paper.json
gate e5_paper.json e5_paper.json
for fresh in base incomplete violations breaches e4_paper e5_paper; do
  gate --check "$fresh.json"
done
