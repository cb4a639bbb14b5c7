import runbench

runbench.use_checkout_src()
