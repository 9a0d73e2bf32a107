"""Complex-valued recurrent networks with Wirtinger-calculus autodiff."""
